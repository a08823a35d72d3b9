(* Shared test utilities: seeded random graph generators wrapped as qcheck
   arbitraries, and brute-force reference algorithms to check the real
   implementations against. *)

module Graph = Pr_graph.Graph

let graph_print g =
  Format.asprintf "%a" Graph.pp g

(* A random 2-connected unweighted graph, fully determined by (seed, n,
   extra) so failures shrink and reproduce. *)
let gen_two_connected ~max_n =
  QCheck.Gen.(
    map
      (fun (seed, n, extra) ->
        (Pr_topo.Generate.two_connected (Pr_util.Rng.create ~seed) ~n ~extra)
          .Pr_topo.Topology.graph)
      (triple (int_bound 1_000_000) (int_range 4 max_n) (int_bound 12)))

let arb_two_connected ?(max_n = 14) () =
  QCheck.make ~print:graph_print (gen_two_connected ~max_n)

(* Random connected weighted graph: 2-connected skeleton with random
   weights in [1, 10]. *)
let gen_weighted_connected ~max_n =
  QCheck.Gen.(
    map
      (fun (seed, n, extra) ->
        let rng = Pr_util.Rng.create ~seed in
        let skeleton =
          (Pr_topo.Generate.two_connected rng ~n ~extra).Pr_topo.Topology.graph
        in
        let edges =
          Graph.fold_edges
            (fun _ (e : Graph.edge) acc ->
              (e.u, e.v, 1.0 +. Pr_util.Rng.float rng 9.0) :: acc)
            skeleton []
        in
        Graph.create ~n:(Graph.n skeleton) edges)
      (triple (int_bound 1_000_000) (int_range 4 max_n) (int_bound 12)))

let arb_weighted_connected ?(max_n = 12) () =
  QCheck.make ~print:graph_print (gen_weighted_connected ~max_n)

(* Brute-force all-pairs shortest distances (Floyd–Warshall). *)
let floyd_warshall g =
  let n = Graph.n g in
  let dist = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0.0
  done;
  Graph.iter_edges
    (fun _ (e : Graph.edge) ->
      if e.w < dist.(e.u).(e.v) then begin
        dist.(e.u).(e.v) <- e.w;
        dist.(e.v).(e.u) <- e.w
      end)
    g;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = dist.(i).(k) +. dist.(k).(j) in
        if via < dist.(i).(j) then dist.(i).(j) <- via
      done
    done
  done;
  dist

(* All (src, dst) pairs of a graph, src <> dst. *)
let all_pairs g =
  let n = Graph.n g in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if src <> dst then Some (src, dst) else None)
        (List.init n Fun.id))
    (List.init n Fun.id)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* A deterministic planar rotation for grids: geometric from coordinates. *)
let grid_with_rotation ~rows ~cols =
  let topo = Pr_topo.Generate.grid ~rows ~cols in
  (topo, Pr_embed.Geometric.of_topology topo)

(* Account one [Kernel.run_one] result the way [Kernel.forward_into]
   accounts it: the oracle for the batch walk's counters. *)
let account_run_one fib (c : Pr_fastpath.Kernel.counters) ~src ~dst
    (r : Pr_fastpath.Kernel.result) =
  let module Kernel = Pr_fastpath.Kernel in
  let module Forward = Pr_core.Forward in
  c.injected <- c.injected + 1;
  (match r.Kernel.outcome with
  | Forward.Delivered ->
      c.delivered <- c.delivered + 1;
      let stretch =
        r.Kernel.cost /. Pr_fastpath.Fib.distance fib ~node:src ~dst
      in
      c.stretch_sum <- c.stretch_sum +. stretch;
      if stretch > c.worst_stretch then c.worst_stretch <- stretch
  | Forward.Ttl_exceeded -> c.looped <- c.looped + 1
  | Forward.Dropped_no_interface | Forward.Dropped_unreachable
  | Forward.Dropped_corrupt ->
      c.dropped <- c.dropped + 1);
  (match r.Kernel.reason with
  | None -> ()
  | Some reason ->
      let i = Kernel.reason_index reason in
      c.drops_by_reason.(i) <- c.drops_by_reason.(i) + 1);
  List.iter
    (function
      | Forward.Retry_complementary ->
          c.complementary_retries <- c.complementary_retries + 1
      | Forward.Lfa_rescue -> c.lfa_rescues <- c.lfa_rescues + 1
      | Forward.Dd_saturated -> c.dd_saturations <- c.dd_saturations + 1)
    r.Kernel.degradations;
  c.shortcut_exits <- c.shortcut_exits + r.Kernel.shortcuts;
  c.pr_episodes <- c.pr_episodes + r.Kernel.pr_episodes;
  c.failure_hits <- c.failure_hits + r.Kernel.failure_hits

(* The list-based LFA row builder the FIB compiler used before its CSR
   was filled in place: the oracle for [Fib.lfa_candidates].  RFC 5286
   basic inequality over the administratively live neighbours, primary
   excluded, ordered by (cost + remaining distance, neighbour id);
   returns ports. *)
let lfa_row ~neighbours ~node_port ~n ~x ~dst ~primary ~dist ~cost_of ~live_of =
  let dist_x = dist.((x * n) + dst) in
  Array.to_list neighbours
  |> List.filter_map (fun w ->
         if not (live_of w) then None
         else
           let cost = cost_of w in
           let dist_w = dist.((w * n) + dst) in
           if w <> primary && dist_w < cost +. dist_x then
             Some (cost +. dist_w, w)
           else None)
  |> List.sort compare
  |> List.map (fun (_, w) -> node_port.((x * n) + w))

(* The oracle's candidate neighbours for one (node, dst) row of an
   image, read through the image's public accessors. *)
let lfa_oracle fib ~node ~dst =
  let module Fib = Pr_fastpath.Fib in
  match Fib.next_hop fib ~node ~dst with
  | None -> []
  | Some primary ->
      lfa_row
        ~neighbours:(Graph.neighbours (Fib.graph fib) node)
        ~node_port:(Fib.raw_node_port fib) ~n:(Fib.n fib) ~x:node ~dst
        ~primary ~dist:(Fib.raw_distance fib)
        ~cost_of:(fun w -> Fib.eff_weight fib ~u:node ~v:w)
        ~live_of:(fun w -> Fib.link_live fib ~u:node ~v:w)
      |> List.map (fun p -> Fib.neighbour_of fib ~node ~port:p)

(* The shortest-path tree [Pr_graph.Dijkstra.tree] computed before its
   frontier became an indexed heap: lazy deletion over [Pr_util.Heap]
   (duplicate entries, FIFO among equal keys) with the same smaller-id
   parent rule at equal cost.  The oracle for [Dijkstra.tree]. *)
type oracle_tree = { dist : float array; parent : int array; hops : int array }

let oracle_tree ?(blocked = fun _ -> false) g ~root =
  let n = Graph.n g in
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
                parent.(w) <- v;
                hops.(w) <- hops.(v) + 1
              end
            end
          done
        end;
        drain ()
  in
  drain ();
  { dist; parent; hops }
