module Graph = Pr_graph.Graph

let triangle () = Graph.create ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 4.0) ]

let test_create_counts () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check (float 0.0)) "total weight" 7.0 (Graph.total_weight g)

let invalid msg thunk =
  match thunk () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let test_create_validation () =
  invalid "self loop" (fun () -> Graph.create ~n:2 [ (0, 0, 1.0) ]);
  invalid "duplicate" (fun () -> Graph.create ~n:2 [ (0, 1, 1.0); (1, 0, 2.0) ]);
  invalid "out of range" (fun () -> Graph.create ~n:2 [ (0, 2, 1.0) ]);
  invalid "negative endpoint" (fun () -> Graph.create ~n:2 [ (-1, 1, 1.0) ]);
  invalid "zero weight" (fun () -> Graph.create ~n:2 [ (0, 1, 0.0) ]);
  invalid "negative weight" (fun () -> Graph.create ~n:2 [ (0, 1, -1.0) ]);
  invalid "nan weight" (fun () -> Graph.create ~n:2 [ (0, 1, Float.nan) ]);
  invalid "infinite weight" (fun () -> Graph.create ~n:2 [ (0, 1, infinity) ])

let test_neighbours_sorted () =
  let g = Graph.unweighted ~n:5 [ (3, 0); (3, 4); (3, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 4 |] (Graph.neighbours g 3);
  Alcotest.(check int) "degree" 3 (Graph.degree g 3);
  Alcotest.(check int) "max degree" 3 (Graph.max_degree g);
  Alcotest.(check (array int)) "leaf" [| 3 |] (Graph.neighbours g 0)

let test_edge_lookup () =
  let g = triangle () in
  Alcotest.(check bool) "has 0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "has 1-0" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no 1-1" false (Graph.has_edge g 1 1);
  Alcotest.(check (float 0.0)) "weight symmetric" (Graph.weight g 1 2) (Graph.weight g 2 1);
  Alcotest.(check int) "edge_index symmetric" (Graph.edge_index g 0 2) (Graph.edge_index g 2 0);
  Alcotest.check_raises "weight of non-edge" Not_found (fun () ->
      let g2 = Graph.unweighted ~n:3 [ (0, 1) ] in
      ignore (Graph.weight g2 0 2))

let test_edges_canonical () =
  let g = Graph.create ~n:3 [ (2, 0, 1.5) ] in
  let e = Graph.edge g 0 in
  Alcotest.(check int) "u < v" 0 e.Graph.u;
  Alcotest.(check int) "v" 2 e.Graph.v;
  Alcotest.(check (float 0.0)) "w" 1.5 e.Graph.w

let test_without_edges () =
  let g = triangle () in
  let g' = Graph.without_edges g [ (1, 0) ] in
  Alcotest.(check int) "one fewer edge" 2 (Graph.m g');
  Alcotest.(check bool) "edge gone" false (Graph.has_edge g' 0 1);
  Alcotest.(check bool) "others kept" true (Graph.has_edge g' 1 2);
  invalid "removing non-edge" (fun () -> Graph.without_edges g' [ (0, 1) ])

let test_induced () =
  let g = Graph.unweighted ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let sub, mapping = Graph.induced g [ 0; 1; 2 ] in
  Alcotest.(check int) "3 nodes" 3 (Graph.n sub);
  Alcotest.(check int) "2 edges survive" 2 (Graph.m sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] mapping

let test_equal_structure () =
  let a = triangle () and b = triangle () in
  Alcotest.(check bool) "equal" true (Graph.equal_structure a b);
  let c = Graph.create ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 5.0) ] in
  Alcotest.(check bool) "weight differs" false (Graph.equal_structure a c)

let test_fold_iter_edges () =
  let g = triangle () in
  let indices = Graph.fold_edges (fun i _ acc -> i :: acc) g [] in
  Alcotest.(check (list int)) "indices in order" [ 2; 1; 0 ] indices;
  let count = ref 0 in
  Graph.iter_edges (fun _ _ -> incr count) g;
  Alcotest.(check int) "iterated" 3 !count

let test_empty_graph () =
  let g = Graph.create ~n:0 [] in
  Alcotest.(check int) "no nodes" 0 (Graph.n g);
  Alcotest.(check int) "no edges" 0 (Graph.m g)

let qcheck_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:100
    (Helpers.arb_two_connected ())
    (fun g ->
      let sum = ref 0 in
      for v = 0 to Graph.n g - 1 do
        sum := !sum + Graph.degree g v
      done;
      !sum = 2 * Graph.m g)

let qcheck_edge_index_roundtrip =
  QCheck.Test.make ~name:"edge / edge_index round-trip" ~count:100
    (Helpers.arb_two_connected ())
    (fun g ->
      Graph.fold_edges
        (fun i (e : Graph.edge) acc ->
          acc && Graph.edge_index g e.u e.v = i && Graph.edge_index g e.v e.u = i)
        g true)

(* Out-of-range ids are never adjacent.  Under a [u * n + v] key both
   (0, 5) and (2, -1) would name edge 1-2 on this path. *)
let test_out_of_range_lookup () =
  let g = Graph.create ~n:3 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  let not_found what f = Alcotest.check_raises what Not_found f in
  not_found "edge_index 0 5" (fun () -> ignore (Graph.edge_index g 0 5));
  not_found "weight 0 5" (fun () -> ignore (Graph.weight g 0 5));
  not_found "edge_index 2 -1" (fun () -> ignore (Graph.edge_index g 2 (-1)));
  not_found "edge_index -1 2" (fun () -> ignore (Graph.edge_index g (-1) 2));
  not_found "edge_index 3 0" (fun () -> ignore (Graph.edge_index g 3 0));
  Alcotest.(check bool) "has_edge 0 5" false (Graph.has_edge g 0 5);
  Alcotest.(check bool) "has_edge 2 -1" false (Graph.has_edge g 2 (-1));
  let f = Pr_core.Failure.of_list g [ (1, 2) ] in
  not_found "link_up 0 5" (fun () -> ignore (Pr_core.Failure.link_up f 0 5))

let qcheck_adjacency_consistency =
  QCheck.Test.make ~name:"neighbour_edges / edge_index / has_edge agree"
    ~count:100 (Helpers.arb_two_connected ())
    (fun g ->
      let n = Graph.n g in
      let ok = ref true in
      for u = 0 to n - 1 do
        let nbrs = Graph.neighbours g u and via = Graph.neighbour_edges g u in
        if Array.length via <> Array.length nbrs then ok := false
        else
          Array.iteri
            (fun k v ->
              let e = Graph.edge g via.(k) in
              if
                Graph.edge_index g u v <> via.(k)
                || Graph.edge_index g v u <> via.(k)
                || (min u v, max u v) <> (e.Graph.u, e.Graph.v)
              then ok := false)
            nbrs
      done;
      for u = -1 to n do
        for v = -1 to n do
          let adjacent =
            u >= 0 && u < n && Array.mem v (Graph.neighbours g u)
          in
          let indexed =
            match Graph.edge_index g u v with
            | i -> i >= 0 && i < Graph.m g
            | exception Not_found -> false
          in
          if
            Graph.has_edge g u v <> adjacent
            || Graph.has_edge g v u <> adjacent
            || indexed <> adjacent
          then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "create counts" `Quick test_create_counts;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "neighbours sorted" `Quick test_neighbours_sorted;
    Alcotest.test_case "edge lookup" `Quick test_edge_lookup;
    Alcotest.test_case "edges canonical" `Quick test_edges_canonical;
    Alcotest.test_case "without_edges" `Quick test_without_edges;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "equal_structure" `Quick test_equal_structure;
    Alcotest.test_case "fold and iter" `Quick test_fold_iter_edges;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    QCheck_alcotest.to_alcotest qcheck_degree_sum;
    QCheck_alcotest.to_alcotest qcheck_edge_index_roundtrip;
    Alcotest.test_case "out-of-range lookups raise Not_found" `Quick
      test_out_of_range_lookup;
    QCheck_alcotest.to_alcotest qcheck_adjacency_consistency;
  ]
