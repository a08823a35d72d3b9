type edge = { u : int; v : int; w : float }

type t = {
  n : int;
  edge_array : edge array;
  adj : int array array;       (* sorted neighbour ids per node *)
  adj_edge : int array array;  (* [adj_edge.(u).(k)]: index of edge u--adj.(u).(k) *)
}

let create ~n edge_list =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  let canonical =
    List.map
      (fun (u, v, w) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg
            (Printf.sprintf "Graph.create: endpoint out of range (%d,%d)" u v);
        if u = v then invalid_arg "Graph.create: self loop";
        if not (Float.is_finite w) || w <= 0.0 then
          invalid_arg "Graph.create: weights must be finite and positive";
        let u, v = if u < v then (u, v) else (v, u) in
        { u; v; w })
      edge_list
  in
  let edge_array = Array.of_list canonical in
  let degree = Array.make n 0 in
  Array.iter
    (fun e ->
      degree.(e.u) <- degree.(e.u) + 1;
      degree.(e.v) <- degree.(e.v) + 1)
    edge_array;
  let adj_edge = Array.init n (fun i -> Array.make degree.(i) (-1)) in
  let fill = Array.make n 0 in
  let add x i =
    adj_edge.(x).(fill.(x)) <- i;
    fill.(x) <- fill.(x) + 1
  in
  Array.iteri
    (fun i e ->
      add e.u i;
      add e.v i)
    edge_array;
  let other x i =
    let e = edge_array.(i) in
    if e.u = x then e.v else e.u
  in
  let adj =
    Array.mapi
      (fun x row ->
        Array.sort (fun i j -> compare (other x i) (other x j)) row;
        let nbrs = Array.map (other x) row in
        for k = 1 to Array.length nbrs - 1 do
          if nbrs.(k) = nbrs.(k - 1) then
            invalid_arg
              (Printf.sprintf "Graph.create: duplicate edge (%d,%d)"
                 (min x nbrs.(k)) (max x nbrs.(k)))
        done;
        nbrs)
      adj_edge
  in
  { n; edge_array; adj; adj_edge }

let unweighted ~n pairs = create ~n (List.map (fun (u, v) -> (u, v, 1.0)) pairs)

let n t = t.n

let m t = Array.length t.edge_array

let neighbours t v =
  if v < 0 || v >= t.n then invalid_arg "Graph.neighbours: node out of range";
  t.adj.(v)

let neighbour_edges t v =
  if v < 0 || v >= t.n then
    invalid_arg "Graph.neighbour_edges: node out of range";
  t.adj_edge.(v)

let degree t v = Array.length (neighbours t v)

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    best := max !best (degree t v)
  done;
  !best

(* Position of [v] in [u]'s sorted adjacency row, or -1: a range check
   then a binary search, so out-of-range ids never alias a real edge. *)
let slot t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then -1
  else begin
    let row = t.adj.(u) in
    let lo = ref 0 and hi = ref (Array.length row) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if row.(mid) < v then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length row && row.(!lo) = v then !lo else -1
  end

let has_edge t u v = slot t u v >= 0

let edge_index t u v =
  let k = slot t u v in
  if k < 0 then raise Not_found else t.adj_edge.(u).(k)

let edge t i = t.edge_array.(i)

let weight t u v = (edge t (edge_index t u v)).w

let edges t = t.edge_array

let fold_edges f t init =
  let acc = ref init in
  Array.iteri (fun i e -> acc := f i e !acc) t.edge_array;
  !acc

let iter_edges f t = Array.iteri f t.edge_array

let total_weight t = Array.fold_left (fun acc e -> acc +. e.w) 0.0 t.edge_array

let without_edges t removals =
  let removed = Array.make (m t) false in
  List.iter
    (fun (u, v) ->
      if not (has_edge t u v) then
        invalid_arg (Printf.sprintf "Graph.without_edges: no edge (%d,%d)" u v);
      removed.(edge_index t u v) <- true)
    removals;
  let kept =
    fold_edges
      (fun i e acc -> if removed.(i) then acc else (e.u, e.v, e.w) :: acc)
      t []
  in
  create ~n:t.n (List.rev kept)

let induced t nodes =
  let nodes = List.sort_uniq compare nodes in
  List.iter
    (fun v ->
      if v < 0 || v >= t.n then invalid_arg "Graph.induced: node out of range")
    nodes;
  let mapping = Array.of_list nodes in
  let back = Hashtbl.create (2 * Array.length mapping) in
  Array.iteri (fun fresh original -> Hashtbl.replace back original fresh) mapping;
  let kept =
    fold_edges
      (fun _ e acc ->
        match (Hashtbl.find_opt back e.u, Hashtbl.find_opt back e.v) with
        | Some u', Some v' -> (u', v', e.w) :: acc
        | _ -> acc)
      t []
  in
  (create ~n:(Array.length mapping) (List.rev kept), mapping)

let equal_structure a b =
  a == b
  || n a = n b && m a = m b
  && fold_edges
       (fun _ e acc -> acc && has_edge b e.u e.v && weight b e.u e.v = e.w)
       a true

let pp ppf t =
  Format.fprintf ppf "@[<v>graph n=%d m=%d" t.n (m t);
  iter_edges (fun _ e -> Format.fprintf ppf "@,  %d -- %d  w=%g" e.u e.v e.w) t;
  Format.fprintf ppf "@]"
