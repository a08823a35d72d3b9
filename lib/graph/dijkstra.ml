type tree = {
  root : int;
  dist : float array;
  parent : int array;
  hops : int array;
}

(* The frontier is an indexed binary min-heap over node ids: [heap] holds
   the queued ids, [pos.(v)] is [v]'s slot in it, [-1] before [v] is first
   queued and [-2] once it is settled.  Keys are read from [dist] itself, so
   an improving relaxation of a queued node is a decrease-key (a sift-up
   from its slot) rather than a second entry, and a tree does at most [n]
   pushes and [n] pops with no allocation past its own arrays.

   The pop order among equal keys needs no tie-break: weights are finite
   and positive, so every tight predecessor of [w] ([dist v + weight =
   dist w]) has a strictly smaller key and is settled before [w] is.  The
   parent rule in [tree] therefore sees the same predecessor set whatever
   order equal keys leave the heap in. *)

(* Move [v] up from slot [i] to where its key belongs.  [dist] is
   annotated so that [<] compiles to a float comparison, not the
   polymorphic one. *)
let rec sift_up (dist : float array) heap pos v i =
  let up = (i - 1) / 2 in
  if i > 0 && dist.(v) < dist.(heap.(up)) then begin
    let u = heap.(up) in
    heap.(i) <- u;
    pos.(u) <- i;
    sift_up dist heap pos v up
  end
  else begin
    heap.(i) <- v;
    pos.(v) <- i
  end

(* Move [v] down from slot [i] of a heap of [len] entries. *)
let rec sift_down (dist : float array) heap pos len v i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < len && dist.(heap.(l + 1)) < dist.(heap.(l)) then l + 1 else l in
  if c < len && dist.(heap.(c)) < dist.(v) then begin
    let u = heap.(c) in
    heap.(i) <- u;
    pos.(u) <- i;
    sift_down dist heap pos len v c
  end
  else begin
    heap.(i) <- v;
    pos.(v) <- i
  end

let tree ?(blocked = fun _ -> false) g ~root =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Dijkstra.tree: root out of range";
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let hops = Array.make n max_int in
  let heap = Array.make n 0 in
  let pos = Array.make n (-1) in
  dist.(root) <- 0.0;
  parent.(root) <- root;
  hops.(root) <- 0;
  heap.(0) <- root;
  pos.(root) <- 0;
  let len = ref 1 in
  while !len > 0 do
    let v = heap.(0) in
    decr len;
    if !len > 0 then sift_down dist heap pos !len heap.(!len) 0;
    pos.(v) <- -2;
    let dv = dist.(v) in
    let nbrs = Graph.neighbours g v and via = Graph.neighbour_edges g v in
    for k = 0 to Array.length nbrs - 1 do
      let w = nbrs.(k) and e = via.(k) in
      if pos.(w) <> -2 && not (blocked e) then begin
        let candidate = dv +. (Graph.edge g e).w in
        if candidate < dist.(w) then begin
          dist.(w) <- candidate;
          parent.(w) <- v;
          hops.(w) <- hops.(v) + 1;
          if pos.(w) = -1 then begin
            incr len;
            sift_up dist heap pos w (!len - 1)
          end
          else sift_up dist heap pos w pos.(w)
        end
        else if candidate = dist.(w) && v < parent.(w) then begin
          (* Deterministic tie-break: among equal-cost predecessors pick
             the smallest id.  The key is unchanged so the heap needs no
             update. *)
          parent.(w) <- v;
          hops.(w) <- hops.(v) + 1
        end
      end
    done
  done;
  { root; dist; parent; hops }

let all_roots ?blocked g = Array.init (Graph.n g) (fun root -> tree ?blocked g ~root)

let reachable t v = t.dist.(v) < infinity

let next_hop t v =
  if v = t.root || not (reachable t v) then None else Some t.parent.(v)

let distance t v = t.dist.(v)

let hop_count t v = t.hops.(v)

let path_to_root t v =
  if not (reachable t v) then None
  else begin
    let rec walk v acc =
      if v = t.root then List.rev (v :: acc) else walk t.parent.(v) (v :: acc)
    in
    Some (walk v [])
  end

let diameter_fold f init g =
  let trees = all_roots g in
  Array.fold_left
    (fun acc t ->
      let acc = ref acc in
      for v = 0 to Graph.n g - 1 do
        if reachable t v then acc := f !acc t v
      done;
      !acc)
    init trees

let diameter_hops g = diameter_fold (fun acc t v -> max acc t.hops.(v)) 0 g

let diameter_weight g = diameter_fold (fun acc t v -> Float.max acc t.dist.(v)) 0.0 g
