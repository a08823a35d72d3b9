type tree = {
  root : int;
  dist : float array;
  parent : int array;
  hops : int array;
}

let tree ?(blocked = fun _ -> false) g ~root =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Dijkstra.tree: root out of range";
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let hops = Array.make n max_int in
  let settled = Array.make n false in
  let heap = Pr_util.Heap.create () in
  dist.(root) <- 0.0;
  parent.(root) <- root;
  hops.(root) <- 0;
  Pr_util.Heap.push heap 0.0 root;
  let rec drain () =
    match Pr_util.Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
        if not settled.(v) && d <= dist.(v) then begin
          settled.(v) <- true;
          let nbrs = Graph.neighbours g v and via = Graph.neighbour_edges g v in
          for k = 0 to Array.length nbrs - 1 do
            let w = nbrs.(k) and e = via.(k) in
            if not settled.(w) && not (blocked e) then begin
              let candidate = dist.(v) +. (Graph.edge g e).w in
              if candidate < dist.(w) then begin
                dist.(w) <- candidate;
                parent.(w) <- v;
                hops.(w) <- hops.(v) + 1;
                Pr_util.Heap.push heap candidate w
              end
              else if candidate = dist.(w) && v < parent.(w) then begin
                (* Deterministic tie-break: among equal-cost predecessors pick
                   the smallest id.  Distances are unchanged so the heap needs
                   no update. *)
                parent.(w) <- v;
                hops.(w) <- hops.(v) + 1
              end
            end
          done
        end;
        drain ()
  in
  drain ();
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
