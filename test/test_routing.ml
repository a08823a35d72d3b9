module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing

let test_basic () =
  let g = (Pr_topo.Example.topology ()).Pr_topo.Topology.graph in
  let r = Routing.build g in
  Alcotest.(check (option int)) "next hop" (Some 1)
    (Routing.next_hop r ~node:0 ~dst:5);
  Alcotest.(check (option int)) "at destination" None
    (Routing.next_hop r ~node:5 ~dst:5);
  Alcotest.(check (float 0.0)) "distance A-F" 4.0 (Routing.distance r ~node:0 ~dst:5);
  Alcotest.(check int) "hops A-F" 4 (Routing.hops r ~node:0 ~dst:5);
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 3; 4; 5 ])
    (Routing.shortest_path r ~src:0 ~dst:5)

let test_kinds () =
  let g = Graph.create ~n:3 [ (0, 1, 5.0); (1, 2, 5.0) ] in
  let hop_r = Routing.build ~kind:Pr_core.Discriminator.Hops g in
  let w_r = Routing.build ~kind:Pr_core.Discriminator.Weighted g in
  Alcotest.(check (float 0.0)) "hop discriminator" 2.0 (Routing.disc hop_r ~node:0 ~dst:2);
  Alcotest.(check (float 0.0)) "weighted discriminator" 10.0 (Routing.disc w_r ~node:0 ~dst:2)

let test_quantise () =
  let g = Graph.create ~n:2 [ (0, 1, 2.3) ] in
  let hop_r = Routing.build g in
  Alcotest.(check int) "hops identity" 3 (Routing.quantise_dd hop_r 3.0);
  let w_r = Routing.build ~kind:Pr_core.Discriminator.Weighted g in
  Alcotest.(check int) "weighted ceiling" 3 (Routing.quantise_dd w_r 2.3)

let test_memory_entries () =
  let g = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph in
  Alcotest.(check int) "n(n-1)" 110 (Routing.memory_entries (Routing.build g))

let test_dd_bits () =
  let g = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph in
  Alcotest.(check int) "abilene dd bits" 3 (Routing.dd_bits (Routing.build g))

(* [dd_bits] is folded once from the routing trees; it must be the value
   Discriminator.bits_needed recomputes from the graph, for both kinds, and
   a blocked rebuild keeps the full graph's value. *)
let test_dd_bits_eager () =
  List.iter
    (fun topo ->
      let g = topo.Pr_topo.Topology.graph in
      List.iter
        (fun kind ->
          let name =
            topo.Pr_topo.Topology.name ^ " "
            ^ Pr_core.Discriminator.to_string kind
          in
          let expect = Pr_core.Discriminator.bits_needed kind g in
          let r = Routing.build ~kind g in
          Alcotest.(check int) (name ^ " dd bits") expect (Routing.dd_bits r);
          (* Block every third link: the SPF trees change, the bit budget
             does not. *)
          let blocked =
            Routing.build_blocked r ~blocked:(fun i -> i mod 3 = 0)
          in
          Alcotest.(check int) (name ^ " blocked dd bits") expect
            (Routing.dd_bits blocked);
          Alcotest.(check bool) (name ^ " blocked keeps the kind") true
            (Routing.kind blocked = kind))
        [ Pr_core.Discriminator.Hops; Pr_core.Discriminator.Weighted ])
    [
      Pr_topo.Abilene.topology ();
      Pr_topo.Teleglobe.topology ();
      Pr_topo.Geant.topology ();
    ]

let qcheck_next_hop_chain_terminates =
  QCheck.Test.make ~name:"routing chains reach every destination" ~count:60
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let r = Routing.build g in
      List.for_all
        (fun (src, dst) ->
          let rec walk x steps =
            if x = dst then true
            else if steps > Graph.n g then false
            else
              match Routing.next_hop r ~node:x ~dst with
              | None -> false
              | Some w -> walk w (steps + 1)
          in
          walk src 0)
        (Helpers.all_pairs g))

let qcheck_shortest_path_cost_matches =
  QCheck.Test.make ~name:"shortest_path cost equals distance" ~count:60
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let r = Routing.build g in
      List.for_all
        (fun (src, dst) ->
          match Routing.shortest_path r ~src ~dst with
          | None -> false
          | Some path ->
              Helpers.close ~eps:1e-6
                (Pr_graph.Paths.cost g path)
                (Routing.distance r ~node:src ~dst))
        (Helpers.all_pairs g))

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "discriminator kinds" `Quick test_kinds;
    Alcotest.test_case "quantise" `Quick test_quantise;
    Alcotest.test_case "memory entries" `Quick test_memory_entries;
    Alcotest.test_case "dd bits" `Quick test_dd_bits;
    Alcotest.test_case "dd bits folded from the trees" `Quick
      test_dd_bits_eager;
    QCheck_alcotest.to_alcotest qcheck_next_hop_chain_terminates;
    QCheck_alcotest.to_alcotest qcheck_shortest_path_cost_matches;
  ]
