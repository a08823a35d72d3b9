(* The FIB compiler's LFA plane and span attribution, pinned against
   the list-based row builder it replaced ([Helpers.lfa_row]):

   - every (node, dst) row of a fresh compile equals the oracle on
     random weighted graphs whose weights come from {1, 2, 3}, so equal
     cost ties are everywhere;
   - after [Fib.Delta.apply] Down/Up/Weight edits, every row still
     equals the oracle and the image equals [Delta.recompile].  The
     edits dirty destination columns 0 and n-1 and touch nodes 0 and
     n-1, the first and last rows of the CSR, where the relayout's runs
     of copied rows begin and end;
   - on Geant the fib.compile.* child spans account for the compile. *)

module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing
module Cycle_table = Pr_core.Cycle_table
module Rng = Pr_util.Rng
module Fib = Pr_fastpath.Fib
module Delta = Pr_fastpath.Fib.Delta
module Span = Pr_telemetry.Span

(* A 2-connected graph with every weight drawn from {1, 2, 3}, with an
   adjacency rotation; fully determined by the seed triple. *)
let tied_instance (seed, n, extra) =
  let rng = Rng.create ~seed in
  let skeleton =
    (Pr_topo.Generate.two_connected rng ~n ~extra).Pr_topo.Topology.graph
  in
  let g =
    Graph.create ~n:(Graph.n skeleton)
      (Graph.fold_edges
         (fun _ (e : Graph.edge) acc ->
           (e.u, e.v, float_of_int (1 + Rng.int rng 3)) :: acc)
         skeleton [])
  in
  (g, Pr_embed.Rotation.adjacency g)

let compile (g, rotation) =
  Fib.of_tables_exn (Routing.build g) (Cycle_table.build rotation)

let check_rows what fib =
  let n = Fib.n fib in
  for node = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let got = Fib.lfa_candidates fib ~node ~dst in
      let want = Helpers.lfa_oracle fib ~node ~dst in
      if got <> want then
        Alcotest.failf "%s: LFA row (%d, %d) is [%s], oracle says [%s]" what
          node dst
          (String.concat "; " (List.map string_of_int got))
          (String.concat "; " (List.map string_of_int want))
    done
  done

let arb_seed =
  QCheck.make
    ~print:(fun (s, n, e) -> Printf.sprintf "seed=%d n=%d extra=%d" s n e)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 4 24) (int_bound 16))

let qcheck_compile_oracle =
  QCheck.Test.make ~count:60 ~name:"compiled LFA rows = list oracle (tied weights)"
    arb_seed (fun params ->
      check_rows "compile" (compile (tied_instance params));
      true)

(* The base edge joining [x] to the neighbour it routes [dst] through:
   tight for [dst], so taking it down (or raising its weight) dirties
   column [dst]. *)
let tight_link fib ~x ~dst =
  match Fib.next_hop fib ~node:x ~dst with
  | Some w -> (x, w)
  | None -> Alcotest.failf "no route %d -> %d" x dst

let edit (u, v) change = { Delta.u; v; change }

(* Three batches.  The first takes down a link from node n-1 towards
   destination 0 and one from node 0 towards destination n-1; the next
   re-raises the first and reweights the second; the last restores the
   second.  [threshold:1.0] keeps every batch incremental, so the clean
   rows really are copied. *)
let boundary_batches fib =
  let n = Fib.n fib in
  let a = tight_link fib ~x:(n - 1) ~dst:0 in
  let b = tight_link fib ~x:0 ~dst:(n - 1) in
  if fst b = snd a && snd b = fst a then
    [
      [ edit a Delta.Down ];
      [ edit a (Delta.Weight 2.5) ];
      [ edit a Delta.Up ];
    ]
  else
    [
      [ edit a Delta.Down; edit b Delta.Down ];
      [ edit a Delta.Up; edit b (Delta.Weight 3.5) ];
      [ edit b Delta.Up ];
    ]

let check_delta_sequence what fib batches =
  ignore
    (List.fold_left
       (fun cur batch ->
         match Delta.apply ~threshold:1.0 cur batch with
         | Error e -> Alcotest.failf "%s: %s" what (Delta.describe_error e)
         | Ok (next, stats) ->
             if stats.Delta.full then
               Alcotest.failf "%s: batch fell back to a full recompile" what;
             check_rows what next;
             if not (Fib.equal next (Delta.recompile next)) then
               Alcotest.failf "%s: Delta image differs from its recompile (%s)"
                 what (Delta.describe_stats stats);
             next)
       fib batches
      : Fib.t)

let qcheck_delta_oracle =
  QCheck.Test.make ~count:40
    ~name:"Delta LFA rows = list oracle at the CSR boundaries" arb_seed
    (fun params ->
      let fib = compile (tied_instance params) in
      check_delta_sequence "delta" fib (boundary_batches fib);
      true)

(* Random mixed batches with the default threshold, on the paper maps:
   the same two referees after every batch. *)
let test_delta_paper_topologies () =
  List.iter
    (fun topo ->
      let g = topo.Pr_topo.Topology.graph in
      let fib = compile (g, Pr_embed.Geometric.of_topology topo) in
      let rng = Rng.create ~seed:0x1FA in
      let cur = ref fib in
      for _ = 1 to 12 do
        let e = Graph.edge g (Rng.int rng (Graph.m g)) in
        let change =
          if not (Fib.link_live !cur ~u:e.Graph.u ~v:e.Graph.v) then Delta.Up
          else if Rng.int rng 2 = 0 then Delta.Down
          else
            let w = float_of_int (1 + Rng.int rng 3) in
            if w = Fib.eff_weight !cur ~u:e.Graph.u ~v:e.Graph.v then
              Delta.Weight (w +. 0.5)
            else Delta.Weight w
        in
        let next, _ = Delta.apply_exn !cur [ edit (e.Graph.u, e.Graph.v) change ] in
        check_rows topo.Pr_topo.Topology.name next;
        Alcotest.(check bool)
          (topo.Pr_topo.Topology.name ^ ": Delta image = recompile")
          true
          (Fib.equal next (Delta.recompile next));
        cur := next
      done)
    [
      Pr_topo.Abilene.topology ();
      Pr_topo.Geant.topology ();
      Pr_topo.Teleglobe.topology ();
    ]

(* The fib.compile.* children must account for >= 90% of fib.compile
   on Geant.  The best of several compiles is taken, so one preempted
   run on a loaded machine does not decide it. *)
let test_compile_span_coverage () =
  let topo = Pr_topo.Geant.topology () in
  let routing = Routing.build topo.Pr_topo.Topology.graph in
  let cycles = Cycle_table.build (Pr_embed.Geometric.of_topology topo) in
  let once () =
    let recorder = Span.create () in
    Span.install recorder;
    Fun.protect ~finally:Span.uninstall (fun () ->
        ignore (Fib.of_tables_exn routing cycles : Fib.t));
    match Span.roots recorder with
    | [ root ] ->
        Alcotest.(check string) "root span" "fib.compile" root.Span.name;
        List.iter
          (fun (c : Span.node) ->
            if not (String.starts_with ~prefix:"fib.compile." c.Span.name) then
              Alcotest.failf "unexpected child span %s" c.Span.name)
          root.Span.children;
        Span.coverage root
    | roots -> Alcotest.failf "%d root spans, want 1" (List.length roots)
  in
  let best = List.fold_left Float.max 0.0 (List.init 7 (fun _ -> once ())) in
  if best < 0.9 then
    Alcotest.failf "fib.compile.* children cover %.1f%% of fib.compile, want >= 90%%"
      (100.0 *. best)

(* The fib.delta.* children must account for >= 90% of fib.delta.apply
   on one fixed incremental edit of a 300-node Waxman image: the first
   node, from n-1 down, whose link towards destination 0 can go down
   without a full recompile loses that link, which dirties at least
   column 0.  Best of several applies, as above. *)
let test_delta_span_coverage () =
  let topo =
    Pr_topo.Generate.waxman (Rng.create ~seed:1) ~n:300 ~alpha:0.05 ~beta:0.15
  in
  let g = topo.Pr_topo.Topology.graph in
  let fib = compile (g, Pr_embed.Rotation.adjacency g) in
  let rec pick x =
    if x = 0 then Alcotest.fail "no incremental edit towards destination 0"
    else
      match Fib.next_hop fib ~node:x ~dst:0 with
      | None -> pick (x - 1)
      | Some _ ->
          let batch = [ edit (tight_link fib ~x ~dst:0) Delta.Down ] in
          let _, stats = Delta.apply_exn fib batch in
          if stats.Delta.full then pick (x - 1) else batch
  in
  let batch = pick (Fib.n fib - 1) in
  let once () =
    let recorder = Span.create () in
    Span.install recorder;
    Fun.protect ~finally:Span.uninstall (fun () ->
        ignore (Delta.apply_exn fib batch : Fib.t * Delta.stats));
    match Span.roots recorder with
    | [ root ] ->
        Alcotest.(check string) "root span" "fib.delta.apply" root.Span.name;
        Alcotest.(check (list string))
          "child spans"
          [ "fib.delta.planes"; "fib.delta.spf"; "fib.delta.lfa" ]
          (List.map (fun (c : Span.node) -> c.Span.name) root.Span.children);
        Span.coverage root
    | roots -> Alcotest.failf "%d root spans, want 1" (List.length roots)
  in
  let best = List.fold_left Float.max 0.0 (List.init 7 (fun _ -> once ())) in
  if best < 0.9 then
    Alcotest.failf
      "fib.delta.* children cover %.1f%% of fib.delta.apply, want >= 90%%"
      (100.0 *. best)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_compile_oracle;
    QCheck_alcotest.to_alcotest qcheck_delta_oracle;
    Alcotest.test_case "Delta LFA rows = oracle and = recompile on the paper maps"
      `Quick test_delta_paper_topologies;
    Alcotest.test_case "fib.compile children cover >= 90% on Geant" `Quick
      test_compile_span_coverage;
    Alcotest.test_case "fib.delta.apply children cover >= 90% on Waxman-300"
      `Quick test_delta_span_coverage;
  ]
