module Graph = Pr_graph.Graph
module Dijkstra = Pr_graph.Dijkstra

let diamond () =
  (* 0-1-3 and 0-2-3, with 0-1 cheaper. *)
  Graph.create ~n:4 [ (0, 1, 1.0); (0, 2, 2.0); (1, 3, 1.0); (2, 3, 1.0) ]

let test_distances () =
  let t = Dijkstra.tree (diamond ()) ~root:3 in
  Alcotest.(check (float 0.0)) "root" 0.0 (Dijkstra.distance t 3);
  Alcotest.(check (float 0.0)) "via 1" 2.0 (Dijkstra.distance t 0);
  Alcotest.(check (float 0.0)) "node 1" 1.0 (Dijkstra.distance t 1);
  Alcotest.(check int) "hops from 0" 2 (Dijkstra.hop_count t 0)

let test_next_hop () =
  let t = Dijkstra.tree (diamond ()) ~root:3 in
  Alcotest.(check (option int)) "0 goes via 1" (Some 1) (Dijkstra.next_hop t 0);
  Alcotest.(check (option int)) "1 goes direct" (Some 3) (Dijkstra.next_hop t 1);
  Alcotest.(check (option int)) "root has none" None (Dijkstra.next_hop t 3)

let test_path () =
  let t = Dijkstra.tree (diamond ()) ~root:3 in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 3 ]) (Dijkstra.path_to_root t 0)

let test_unreachable () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (2, 3) ] in
  let t = Dijkstra.tree g ~root:0 in
  Alcotest.(check bool) "2 unreachable" false (Dijkstra.reachable t 2);
  Alcotest.(check (option int)) "no next hop" None (Dijkstra.next_hop t 2);
  Alcotest.(check (option (list int))) "no path" None (Dijkstra.path_to_root t 2);
  Alcotest.(check bool) "infinite distance" true (Dijkstra.distance t 2 = infinity)

let test_tie_break_smallest_parent () =
  (* Two equal-cost routes 0-1-3 and 0-2-3: parent of 3 must be 1. *)
  let g = Graph.unweighted ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let t = Dijkstra.tree g ~root:0 in
  Alcotest.(check (option int)) "deterministic tie" (Some 1) (Dijkstra.next_hop t 3)

let test_blocked () =
  let g = diamond () in
  let blocked i =
    let e = Graph.edge g i in
    e.Graph.u = 0 && e.Graph.v = 1
  in
  let t = Dijkstra.tree ~blocked g ~root:3 in
  Alcotest.(check (float 0.0)) "detour" 3.0 (Dijkstra.distance t 0);
  Alcotest.(check (option int)) "via 2 now" (Some 2) (Dijkstra.next_hop t 0)

let test_diameter () =
  let path = Graph.unweighted ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  Alcotest.(check int) "path graph hops" 4 (Dijkstra.diameter_hops path);
  Alcotest.(check (float 0.0)) "path graph weight" 4.0 (Dijkstra.diameter_weight path);
  let single = Graph.create ~n:1 [] in
  Alcotest.(check int) "singleton diameter" 0 (Dijkstra.diameter_hops single)

let test_root_out_of_range () =
  Alcotest.check_raises "bad root"
    (Invalid_argument "Dijkstra.tree: root out of range") (fun () ->
      ignore (Dijkstra.tree (diamond ()) ~root:7))

let qcheck_matches_floyd_warshall =
  QCheck.Test.make ~name:"dijkstra matches Floyd-Warshall" ~count:80
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let reference = Helpers.floyd_warshall g in
      let trees = Dijkstra.all_roots g in
      List.for_all
        (fun (src, dst) ->
          Helpers.close ~eps:1e-6 (Dijkstra.distance trees.(dst) src) reference.(src).(dst))
        (Helpers.all_pairs g))

let qcheck_next_hop_walk_reaches_root =
  QCheck.Test.make ~name:"next-hop walk reaches the root with the tree cost"
    ~count:80
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let trees = Dijkstra.all_roots g in
      List.for_all
        (fun (src, dst) ->
          let t = trees.(dst) in
          let rec walk x cost steps =
            if steps > Graph.n g then false
            else if x = dst then Helpers.close ~eps:1e-6 cost (Dijkstra.distance t src)
            else
              match Dijkstra.next_hop t x with
              | None -> false
              | Some w -> walk w (cost +. Graph.weight g x w) (steps + 1)
          in
          walk src 0.0 0)
        (Helpers.all_pairs g))

let qcheck_hops_consistent =
  QCheck.Test.make ~name:"hop counts equal next-hop chain length" ~count:60
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let trees = Dijkstra.all_roots g in
      List.for_all
        (fun (src, dst) ->
          let t = trees.(dst) in
          match Dijkstra.path_to_root t src with
          | None -> false
          | Some path -> List.length path - 1 = Dijkstra.hop_count t src)
        (Helpers.all_pairs g))

(* [Dijkstra.tree] against [Helpers.oracle_tree], the lazy-deletion
   Dijkstra it replaced: dist (compared with [=]), parent and hops must be
   bit-identical at every node. *)
let same_tree t (o : Helpers.oracle_tree) =
  t.Dijkstra.dist = o.dist && t.Dijkstra.parent = o.parent
  && t.Dijkstra.hops = o.hops

let same_as_oracle ?blocked g ~root =
  same_tree (Dijkstra.tree ?blocked g ~root) (Helpers.oracle_tree ?blocked g ~root)

let check_against_oracle what ?blocked g =
  for root = 0 to Graph.n g - 1 do
    if not (same_as_oracle ?blocked g ~root) then
      Alcotest.failf "%s: tree rooted at %d differs from the oracle" what root
  done

(* A random graph on 2..60 nodes with up to 3n distinct edges, so some
   draws are disconnected; weights from {1, 2, 3} (equal-cost ties
   everywhere) or uniform in (0, 10]; and a random blocked edge subset.
   Fully determined by the seed triple. *)
let oracle_instance (seed, n, tied) =
  let rng = Pr_util.Rng.create ~seed in
  let seen = Hashtbl.create 64 in
  let edges = ref [] in
  for _ = 1 to Pr_util.Rng.int rng ((3 * n) + 1) do
    let u = Pr_util.Rng.int rng n and v = Pr_util.Rng.int rng n in
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let w =
        if tied then float_of_int (1 + Pr_util.Rng.int rng 3)
        else 10.0 -. Pr_util.Rng.float rng 10.0
      in
      edges := (u, v, w) :: !edges
    end
  done;
  let g = Graph.create ~n !edges in
  let p = Pr_util.Rng.float rng 0.4 in
  let blocked = Array.init (Graph.m g) (fun _ -> Pr_util.Rng.float rng 1.0 < p) in
  (g, blocked)

let qcheck_oracle =
  QCheck.Test.make ~name:"every tree equals the lazy-deletion oracle" ~count:300
    (QCheck.make
       ~print:(fun (s, n, tied) ->
         Printf.sprintf "seed=%d n=%d tied=%b" s n tied)
       QCheck.Gen.(triple (int_bound 1_000_000) (int_range 2 60) bool))
    (fun inst ->
      let g, blocked = oracle_instance inst in
      List.for_all
        (fun root ->
          same_as_oracle g ~root
          && same_as_oracle ~blocked:(Array.get blocked) g ~root)
        (List.init (Graph.n g) Fun.id))

(* A fixed Waxman instance with the benchmark's waxman-1k parameters at
   n = 300: Euclidean weights, with and without a blocked set. *)
let test_oracle_waxman () =
  let g =
    (Pr_topo.Generate.waxman (Pr_util.Rng.create ~seed:1) ~n:300 ~alpha:0.05
       ~beta:0.15)
      .Pr_topo.Topology.graph
  in
  check_against_oracle "waxman-300" g;
  check_against_oracle "waxman-300 blocked" ~blocked:(fun i -> i mod 7 = 3) g

(* The paper maps through [Routing.build] and [Routing.build_blocked]:
   every destination's tree equals the oracle's. *)
let test_oracle_paper_maps () =
  let module Routing = Pr_core.Routing in
  List.iter
    (fun (topo : Pr_topo.Topology.t) ->
      let g = topo.Pr_topo.Topology.graph in
      let blocked i = i mod 5 = 1 in
      let base = Routing.build g in
      List.iter
        (fun (what, routing, blocked) ->
          for dst = 0 to Graph.n g - 1 do
            if
              not
                (same_tree (Routing.tree routing dst)
                   (Helpers.oracle_tree ?blocked g ~root:dst))
            then
              Alcotest.failf "%s %s: tree rooted at %d differs from the oracle"
                topo.Pr_topo.Topology.name what dst
          done)
        [
          ("build", base, None);
          ("build_blocked", Routing.build_blocked base ~blocked, Some blocked);
        ])
    [
      Pr_topo.Abilene.topology ();
      Pr_topo.Geant.topology ();
      Pr_topo.Teleglobe.topology ();
      Pr_topo.Abilene.weighted ();
      Pr_topo.Geant.weighted ();
      Pr_topo.Teleglobe.weighted ();
    ]

let suite =
  [
    Alcotest.test_case "distances" `Quick test_distances;
    Alcotest.test_case "next hops" `Quick test_next_hop;
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "deterministic tie-break" `Quick test_tie_break_smallest_parent;
    Alcotest.test_case "blocked edges" `Quick test_blocked;
    Alcotest.test_case "diameter" `Quick test_diameter;
    Alcotest.test_case "root validation" `Quick test_root_out_of_range;
    QCheck_alcotest.to_alcotest qcheck_matches_floyd_warshall;
    QCheck_alcotest.to_alcotest qcheck_next_hop_walk_reaches_root;
    QCheck_alcotest.to_alcotest qcheck_hops_consistent;
    QCheck_alcotest.to_alcotest qcheck_oracle;
    Alcotest.test_case "oracle on waxman-300" `Quick test_oracle_waxman;
    Alcotest.test_case "oracle on the paper maps via Routing" `Quick
      test_oracle_paper_maps;
  ]
