(* Looped walks in the kernel's counting walk.

   [Kernel.forward_into] detects a recurring walk state and skips the
   remaining whole cycles arithmetically instead of walking them to the
   TTL.  This wall pins the fast-forward exact against the TTL walks
   ([Kernel.run_one] and [Forward.run]) on Géant and Teleglobe dual-failure
   sets that loop: counters, probe counts and link-load tables, under DD
   and simple termination, with the shortcut rung armed and disarmed and
   with a saturating DD bit bound, at 1, 2 and 4 domains.  It also bounds
   the cost: a walk with a 2^40 TTL must return. *)

module Graph = Pr_graph.Graph
module Failure = Pr_core.Failure
module Forward = Pr_core.Forward
module Fib = Pr_fastpath.Fib
module Kernel = Pr_fastpath.Kernel
module Parallel = Pr_fastpath.Parallel
module Probe = Pr_telemetry.Probe
module Linkload = Pr_obs.Linkload

type ctx = {
  g : Graph.t;
  routing : Pr_core.Routing.t;
  cycles : Pr_core.Cycle_table.t;
  fib : Fib.t;
  kernel : Kernel.t;
}

let ctx topo =
  let g = topo.Pr_topo.Topology.graph in
  let routing = Pr_core.Routing.build g in
  let cycles =
    Pr_core.Cycle_table.build (Pr_embed.Geometric.of_topology topo)
  in
  let fib = Fib.of_tables_exn routing cycles in
  { g; routing; cycles; fib; kernel = Kernel.create fib }

(* Dual-failure sets (indices into [Scenario.double_links]) whose walks
   loop under the geometric embedding — under DD termination, simple
   termination, or both.  [check_wall] asserts that they loop. *)
let geant_sets = [ 0; 2; 9; 12; 13 ]

let teleglobe_sets = [ 4; 16; 21; 23; 30 ]

let items_of c indices =
  let sets = Array.of_list (Pr_core.Scenario.double_links c.g) in
  let pairs = Array.of_list (Helpers.all_pairs c.g) in
  Array.of_list
    (List.map
       (fun i -> { Parallel.failures = Failure.of_list c.g sets.(i); pairs })
       indices)

let shortcut_width = 16

(* The oracle for one regime, grouped per item as [Parallel] groups it so
   float sums are bit-comparable: counters from [run_one]; probe and
   link-load from [Forward.run], or — under a DD bit bound, which only the
   ladder walks model — link-load from [run_one] and no probe. *)
type expect = {
  e_counters : Kernel.counters;
  e_probe : Probe.t option;
  e_load : Linkload.t;
}

let oracle c ~termination ~armed ~dd_bits items =
  let shortcut =
    if armed then
      Some (Pr_core.Seen.plan ~nodes:(Graph.n c.g) ~width:shortcut_width)
    else None
  in
  Kernel.set_shortcut c.kernel (if armed then Some shortcut_width else None);
  let e_counters = Kernel.fresh_counters () in
  let e_probe = Probe.create () in
  let e_load = Linkload.create c.g in
  if dd_bits <> None then Kernel.set_linkload c.kernel (Some e_load);
  Array.iter
    (fun (item : Parallel.item) ->
      let failures = item.Parallel.failures in
      Kernel.set_failures c.kernel failures;
      let counters = Kernel.fresh_counters () in
      let probe = Probe.create () in
      Array.iter
        (fun (src, dst) ->
          if Failure.pair_connected failures src dst then begin
            Helpers.account_run_one c.fib counters ~src ~dst
              (Kernel.run_one ~termination ?dd_bits c.kernel ~src ~dst);
            if dd_bits = None then
              ignore
                (Forward.run ~termination ?shortcut ~probe ~linkload:e_load
                   ~routing:c.routing ~cycles:c.cycles ~failures ~src ~dst ())
          end
          else begin
            Kernel.record_unreachable counters;
            Probe.record_unreachable probe
          end)
        item.Parallel.pairs;
      Kernel.add_counters ~into:e_counters counters;
      Probe.merge ~into:e_probe probe)
    items;
  Kernel.set_shortcut c.kernel None;
  Kernel.set_linkload c.kernel None;
  {
    e_counters;
    e_probe = (if dd_bits = None then Some e_probe else None);
    e_load;
  }

(* The probe's event counters against the oracle's. *)
let probe_counts_match (e : Kernel.counters) (p : Probe.t) =
  e.complementary_retries = p.Probe.complementary_retries
  && e.lfa_rescues = p.Probe.lfa_rescues
  && e.dd_saturations = p.Probe.dd_saturations
  && e.shortcut_exits = p.Probe.shortcut_exits
  && e.pr_episodes = p.Probe.pr_episodes
  && e.failure_hits = p.Probe.failure_hits
  && e.looped = p.Probe.looped

(* Regimes: termination, shortcut rung armed, DD bit bound.  Two DD bits
   saturate on these maps, so the cycles carry ladder retries and DD
   saturations too. *)
let regimes =
  [
    (Forward.Distance_discriminator, false, None);
    (Forward.Distance_discriminator, true, None);
    (Forward.Simple, false, None);
    (Forward.Simple, true, None);
    (Forward.Distance_discriminator, false, Some 2);
  ]

let check_wall topo indices =
  let c = ctx topo in
  let items = items_of c indices in
  List.iter
    (fun (termination, armed, dd_bits) ->
      let label =
        Printf.sprintf "%s %s armed=%b dd_bits=%s" topo.Pr_topo.Topology.name
          (match termination with
          | Forward.Distance_discriminator -> "dd"
          | Forward.Simple -> "simple")
          armed
          (match dd_bits with None -> "-" | Some b -> string_of_int b)
      in
      let e = oracle c ~termination ~armed ~dd_bits items in
      if e.e_counters.Kernel.looped = 0 then
        Alcotest.failf "%s: the sets do not loop" label;
      let config =
        {
          Parallel.default_config with
          Parallel.termination;
          dd_bits;
          shortcut = (if armed then Some shortcut_width else None);
        }
      in
      List.iter
        (fun domains ->
          let counters = Parallel.run ~domains ~config ~seed:1 c.fib items in
          let pcounters, probe =
            Parallel.run_probed ~domains ~config ~seed:1 c.fib items
          in
          let lcounters, load =
            Parallel.run_loaded ~domains ~config ~seed:1 c.fib items
          in
          let at = Printf.sprintf "%s domains=%d" label domains in
          Alcotest.(check bool) (at ^ ": counters = run_one") true
            (Kernel.equal_counters e.e_counters counters);
          Alcotest.(check bool) (at ^ ": probed counters") true
            (Kernel.equal_counters e.e_counters pcounters);
          Alcotest.(check bool) (at ^ ": loaded counters") true
            (Kernel.equal_counters e.e_counters lcounters);
          Alcotest.(check bool) (at ^ ": probe counts") true
            (match e.e_probe with
            | Some expect -> Probe.equal_counts expect probe
            | None -> probe_counts_match e.e_counters probe);
          Alcotest.(check bool) (at ^ ": linkload") true
            (Linkload.equal e.e_load load))
        [ 1; 2; 4 ])
    regimes

let test_wall_geant () = check_wall (Pr_topo.Geant.topology ()) geant_sets

let test_wall_teleglobe () =
  check_wall (Pr_topo.Teleglobe.topology ()) teleglobe_sets

(* The first looping pair of a Géant looping set. *)
let looping_pair c failures =
  Kernel.set_failures c.kernel failures;
  let loops (src, dst) =
    (Kernel.run_one c.kernel ~src ~dst).Kernel.outcome = Forward.Ttl_exceeded
  in
  match List.find_opt loops (Helpers.all_pairs c.g) with
  | Some p -> p
  | None -> Alcotest.fail "no looping pair"

(* A walk's cost is O(pre-period + cycle), not O(TTL): at the parent
   walk a 2^40 TTL is 10^12 hops.  Odd TTLs, including ones shorter than
   the cycle, stay exact against [run_one]. *)
let test_bounded_cost () =
  let c = ctx (Pr_topo.Geant.topology ()) in
  let items = items_of c [ 0 ] in
  let failures = items.(0).Parallel.failures in
  let src, dst = looping_pair c failures in
  let counters = Kernel.fresh_counters () in
  let probe = Probe.create () in
  Kernel.set_probe c.kernel (Some probe);
  Kernel.forward_into ~ttl:(1 lsl 40) c.kernel counters ~src ~dst;
  Kernel.set_probe c.kernel None;
  Alcotest.(check int) "looped" 1 counters.Kernel.looped;
  (* Every cycle meets a failed link, so the skipped cycles show up as
     far more failure hits than any walk could make hop by hop here. *)
  Alcotest.(check bool) "skipped cycles counted" true
    (counters.Kernel.failure_hits > 1 lsl 30);
  Alcotest.(check int) "probe agrees" counters.Kernel.failure_hits
    probe.Probe.failure_hits;
  List.iter
    (fun ttl ->
      let got = Kernel.fresh_counters () in
      Kernel.forward_into ~ttl c.kernel got ~src ~dst;
      let expect = Kernel.fresh_counters () in
      Helpers.account_run_one c.fib expect ~src ~dst
        (Kernel.run_one ~ttl c.kernel ~src ~dst);
      Alcotest.(check bool)
        (Printf.sprintf "ttl %d: counters = run_one" ttl)
        true
        (Kernel.equal_counters expect got))
    [ 1; 2; 3; 7; 64; 1_000; 12_345; 100_003 ]

(* A budget guard keeps the TTL walk: the ladder reads the hops left.
   The guarded batch walk still equals the guarded [run_one] on sets that
   loop without the guard. *)
let test_budget_guard () =
  let c = ctx (Pr_topo.Geant.topology ()) in
  let items = items_of c [ 0; 12 ] in
  let dd_bits = Fib.dd_bits c.fib in
  List.iter
    (fun budget_guard ->
      let got = Kernel.fresh_counters () in
      let expect = Kernel.fresh_counters () in
      Array.iter
        (fun (item : Parallel.item) ->
          let failures = item.Parallel.failures in
          Kernel.set_failures c.kernel failures;
          Array.iter
            (fun (src, dst) ->
              if Failure.pair_connected failures src dst then begin
                Kernel.forward_into ~dd_bits ~budget_guard c.kernel got ~src
                  ~dst;
                Helpers.account_run_one c.fib expect ~src ~dst
                  (Kernel.run_one ~dd_bits ~budget_guard c.kernel ~src ~dst)
              end)
            item.Parallel.pairs)
        items;
      Alcotest.(check bool)
        (Printf.sprintf "guard %d: counters = run_one" budget_guard)
        true
        (Kernel.equal_counters expect got))
    [ 6; 64 ]

let suite =
  [
    Alcotest.test_case "loop wall: geant dual failures" `Quick test_wall_geant;
    Alcotest.test_case "loop wall: teleglobe dual failures" `Quick
      test_wall_teleglobe;
    Alcotest.test_case "looped walk with a 2^40 ttl" `Quick test_bounded_cost;
    Alcotest.test_case "budget-guarded loops keep the ttl walk" `Quick
      test_budget_guard;
  ]
