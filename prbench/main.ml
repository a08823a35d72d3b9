(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Builds one of three seeded workloads (paper-sweep, waxman-1k,
   sim-detect), sets it up several times, then runs its timed legs:
   three rounds of every leg, in an order rotated by one per round, then
   the leg with the least time so far, until [--seconds] have passed.
   Every leg is checked against a referee outside its clock.  The last
   line of standard output is one JSON object: the end-to-end metrics
   with --trace 0, the per-layer metrics (from spans recorded around
   each library call) with --trace 1.  NOTES.md in this directory lists
   the metrics, the layer each belongs to and the end-to-end metric it
   should move. *)

open Legs

let nproc = Domain.recommended_domain_count ()

(* Load comes from one process using at most nproc domains. *)
let par_domains = max 1 (min 2 nproc)

(* ---- Samples and checks ---- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* Nearest-rank percentile. *)
let percentile p = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median l =
  match List.length l with
  | 0 -> 0.0
  | n when n mod 2 = 1 -> percentile 0.5 l
  | _ ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let med name = median (get name)

let best name = List.fold_left Float.min infinity (get name)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let attempted = ref 0
let failed = ref 0

(* Count [ops] operations as attempted; if the referee says no, count
   them as failed too. *)
let check name ok ~ops =
  attempted := !attempted + ops;
  if not ok then begin
    failed := !failed + ops;
    Printf.printf "REFEREE FAILED: %s\n%!" name
  end

(* ---- Workload plans ---- *)

type plan = {
  batches : batch list;
  edit_fib : Fib.t;
  stream : int -> Delta.edit list;  (* the edits of the leg's r-th run *)
  keep : int -> int -> bool;  (* (run, index) -> referee this image *)
  sims : sim list;  (* run by the engine leg *)
  engine_headline : bool;  (* loss and stretch from the engine *)
  expect_loops : int option;  (* looped walks the batch must hold *)
  footprint_fib : Fib.t;
}

let sum_ints f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* -- paper-sweep -- *)

let failure_sets g =
  let m = Graph.m g in
  let link i =
    let e = Graph.edge g i in
    (e.Graph.u, e.Graph.v)
  in
  let singles = List.init m (fun i -> Failure.of_list g [ link i ]) in
  let doubles =
    List.concat
      (List.init m (fun i ->
           List.init (m - i - 1) (fun j ->
               Failure.of_list g [ link i; link (i + j + 1) ])))
  in
  singles @ doubles

(* Every 1- and 2-link failure set crossed with every ordered pair. *)
let exhaustive_batch sp (w : world) =
  let g = w.topo.Topology.graph in
  let pairs = all_pairs (Graph.n g) in
  let kernel = Kernel.create w.fib in
  let tally = fresh_tally () in
  let ttl = Forward.default_ttl g in
  let sets = failure_sets g in
  let splits =
    List.map
      (fun failures ->
        let walks, unreachable = classify sp kernel ~ttl failures pairs in
        make_split tally ~loop_hops:ttl failures walks unreachable)
      sets
  in
  {
    world = w;
    items =
      Array.of_list
        (List.map (fun failures -> { Parallel.failures; pairs }) sets);
    splits = Array.of_list splits;
    tally;
    ref_loops = true;
  }

let paper_maps () =
  [ Pr_topo.Abilene.topology (); Pr_topo.Teleglobe.topology ();
    Pr_topo.Geant.topology () ]

let paper_sweep_plan sp rng worlds =
  let batches = List.map (exhaustive_batch sp) worlds in
  let geant = List.nth worlds 2 in
  let stream =
    toggle_stream (Pr_util.Rng.split rng) geant.topo.Topology.graph
      ~edits:1000 ~max_down:3
  in
  let sims =
    List.map
      (fun (w : world) ->
        sim_inputs (Pr_util.Rng.split rng) w.topo w.rotation ~horizon:20.0
          ~rate:50.0)
      worlds
  in
  {
    batches;
    edit_fib = geant.fib;
    stream = (fun _ -> stream);
    keep = (fun r i -> r = 0 && i mod 100 = 0);
    sims;
    engine_headline = false;
    expect_loops = None;
    footprint_fib = geant.fib;
  }

(* -- waxman-1k -- *)

(* One fixed Waxman instance, like the paper maps: n = 1000, the scale
   campaign's self-scaled alpha at n = 1000 and beta = 0.15.  The
   benchmark seed draws the failure sets and pairs. *)
let waxman_topology () =
  Pr_topo.Generate.waxman (Pr_util.Rng.create ~seed:1) ~n:1000 ~alpha:0.05
    ~beta:0.15

(* Looped walks in the workload, dealt evenly over the domains. *)
let waxman_loops = 4

let waxman_pool_packets = 120_000

let waxman_pairs_per_set = 500

(* Walks still going after this many hops are loop suspects; each kept
   suspect is confirmed at the full TTL. *)
let waxman_class_ttl = 50_000

(* One failure set of one or two random links, and random pairs. *)
let draw_set rng g ~two =
  let n = Graph.n g and m = Graph.m g in
  let link () =
    let e = Graph.edge g (Pr_util.Rng.int rng m) in
    (e.Graph.u, e.Graph.v)
  in
  let links = if two then [ link (); link () ] else [ link () ] in
  let pairs =
    Array.init waxman_pairs_per_set (fun _ ->
        let s = Pr_util.Rng.int rng n in
        (s, (s + 1 + Pr_util.Rng.int rng (n - 1)) mod n))
  in
  (Failure.of_list g links, pairs)

(* The looped walks come from a fixed search, so every seed forwards the
   same loops and a loop's cycle length (which sets its cost per hop)
   does not vary with the seed. *)
let waxman_loop_seed = 1

let waxman_plan sp rng (w : world) =
  let g = w.topo.Topology.graph in
  let m = Graph.m g in
  let ttl = Forward.default_ttl g in
  let kernel = Kernel.create w.fib in
  let tally = fresh_tally () in
  let splits = ref [] and items = ref [] in
  let loop_splits = ref [] and loop_items = ref [] in
  let kept_loops = ref 0 and sets = ref 0 in
  let confirm failures p =
    Kernel.set_failures kernel failures;
    let c = Kernel.fresh_counters () in
    Spans.span sp "kernel.classify" (fun () ->
        Kernel.forward_into kernel c ~src:(src_of p) ~dst:(dst_of p));
    c.Kernel.looped = 1
  in
  let search = Pr_util.Rng.create ~seed:waxman_loop_seed in
  while !kept_loops < waxman_loops && !sets < 2000 do
    incr sets;
    let failures, pairs = draw_set search g ~two:true in
    let walks, _ = classify sp kernel ~ttl:waxman_class_ttl failures pairs in
    List.iter
      (fun s ->
        if is_loop s && !kept_loops < waxman_loops && confirm failures s.packed
        then begin
          incr kept_loops;
          loop_splits :=
            make_split tally ~loop_hops:ttl failures [ s ] 0 :: !loop_splits;
          loop_items :=
            {
              Parallel.failures;
              pairs = [| (src_of s.packed, dst_of s.packed) |];
            }
            :: !loop_items
        end)
      walks
  done;
  if !kept_loops < waxman_loops then
    failwith "waxman-1k: the loop search found too few looped walks";
  (* The seeded pool; walks it finds looping are left out, so the
     workload holds exactly [waxman_loops] looped walks. *)
  while tally.injected < waxman_pool_packets do
    incr sets;
    let failures, pairs = draw_set rng g ~two:(!sets mod 2 = 1) in
    let walks, unreachable =
      classify sp kernel ~ttl:waxman_class_ttl failures pairs
    in
    let rest = List.filter (fun w -> not (is_loop w)) walks in
    splits :=
      make_split tally ~loop_hops:ttl failures rest unreachable :: !splits;
    let connected =
      List.map (fun w -> (src_of w.packed, dst_of w.packed)) rest
    in
    let cut =
      let label = labels failures in
      List.filter (fun (s, d) -> label.(s) <> label.(d)) (Array.to_list pairs)
    in
    items :=
      { Parallel.failures; pairs = Array.of_list (connected @ cut) } :: !items
  done;
  (* Loop items go last, one walk each, so consecutive indices deal
     them round-robin over the domains. *)
  let batch =
    {
      world = w;
      items = Array.of_list (List.rev !items @ List.rev !loop_items);
      splits = Array.of_list (List.rev !splits @ List.rev !loop_splits);
      tally;
      ref_loops = false;
    }
  in
  (* A flapping link: each run of the edit leg takes the same edge down
     and back up, so every benchmark run times the same edits. *)
  let flap =
    let e = Graph.edge g (m / 2) in
    [
      { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Down };
      { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Up };
    ]
  in
  {
    batches = [ batch ];
    edit_fib = w.fib;
    stream = (fun _ -> flap);
    (* No recompile referee here: at n = 1000 it is a full compile,
       2.5 s and several hundred MB of transient heap. *)
    keep = (fun _ _ -> false);
    sims = [];
    engine_headline = false;
    expect_loops = Some waxman_loops;
    footprint_fib = w.fib;
  }

(* The engine at this scale rebuilds the tables and calls dd_bits for
   every packet, so one packet, and no link events, is all a run can
   afford. *)
let waxman_sims rng topos =
  let topo = List.hd topos in
  let n = Topology.n topo in
  let src = Pr_util.Rng.int rng n in
  let dst = (src + 1 + Pr_util.Rng.int rng (n - 1)) mod n in
  [
    {
      s_topo = topo;
      s_rotation = Pr_embed.Geometric.of_topology topo;
      link_events = [];
      injections = [ { Workload.time = 0.1; src; dst } ];
      detector_seed = Pr_util.Rng.int rng 1_000_000;
    };
  ]

(* -- sim-detect -- *)

(* The sim's packets, each frozen against the true link state at its
   injection time: one Parallel item per interval between link events. *)
let replay_batch sp (w : world) s =
  let g = w.topo.Topology.graph in
  let kernel = Kernel.create w.fib in
  let tally = fresh_tally () in
  let ttl = Forward.default_ttl g in
  let down = Hashtbl.create 16 in
  let groups = ref [] and cur = ref [] in
  let flush () =
    if !cur <> [] then begin
      let links = Hashtbl.fold (fun k () acc -> k :: acc) down [] in
      let links = List.sort compare links in
      groups :=
        (Failure.of_list g links, Array.of_list (List.rev !cur)) :: !groups;
      cur := []
    end
  in
  let rec go evs injs =
    match (evs, injs) with
    | (ev : Workload.link_event) :: evs', (inj : Workload.injection) :: _
      when ev.Workload.time <= inj.Workload.time ->
        flush ();
        let u = ev.Workload.u and v = ev.Workload.v in
        let key = (min u v, max u v) in
        if ev.Workload.up then Hashtbl.remove down key
        else Hashtbl.replace down key ();
        go evs' injs
    | _, (inj : Workload.injection) :: injs' ->
        cur := (inj.Workload.src, inj.Workload.dst) :: !cur;
        go evs injs'
    | _, [] -> flush ()
  in
  go s.link_events s.injections;
  let groups = List.rev !groups in
  let splits =
    List.map
      (fun (failures, pairs) ->
        let walks, unreachable = classify sp kernel ~ttl failures pairs in
        make_split tally ~loop_hops:ttl failures walks unreachable)
      groups
  in
  {
    world = w;
    items =
      Array.of_list
        (List.map
           (fun (failures, pairs) -> { Parallel.failures; pairs })
           groups);
    splits = Array.of_list splits;
    tally;
    ref_loops = true;
  }

let sim_detect_plan sp rng (w : world) =
  let s = sim_inputs rng w.topo w.rotation ~horizon:150.0 ~rate:50.0 in
  let edits = sim_edits s in
  {
    batches = [ replay_batch sp w s ];
    edit_fib = w.fib;
    stream = (fun _ -> edits);
    keep = (fun r i -> r = 0 && i mod 50 = 0);
    sims = [ s ];
    engine_headline = true;
    expect_loops = None;
    footprint_fib = w.fib;
  }

(* ---- Running a workload ---- *)

type workload = {
  name : string;
  maps : unit -> Topology.t list;
  embedding : embedding;
  plan : Spans.t -> Pr_util.Rng.t -> world list -> plan;
  first_sims : Pr_util.Rng.t -> Topology.t list -> sim list;
      (* engine runs made once, before set-up, on an empty heap *)
}

let workloads =
  [
    {
      name = "paper-sweep";
      maps = paper_maps;
      embedding = Recommend;
      plan = paper_sweep_plan;
      first_sims = (fun _ _ -> []);
    };
    {
      name = "waxman-1k";
      maps = (fun () -> [ waxman_topology () ]);
      embedding = Geometric;
      plan = (fun sp rng ws -> waxman_plan sp rng (List.hd ws));
      first_sims = waxman_sims;
    };
    {
      name = "sim-detect";
      maps = (fun () -> [ Pr_topo.Geant.topology () ]);
      embedding = Recommend;
      plan = (fun sp rng ws -> sim_detect_plan sp rng (List.hd ws));
      first_sims = (fun _ _ -> []);
    };
  ]

(* A forwarding sample repeats its leg until it covers at least this
   much work, so millisecond legs are not timed one at a time. *)
let sample_ns = 2e8

let setup_min_reps = 3

(* Set-up repeats until both [setup_min_reps] runs and this much time
   have passed, so a millisecond set-up is still a median of many. *)
let setup_min_ns = 1e9

let setup_max_reps = 200

(* Set the maps up repeatedly; keep the first images.  Each repetition
   records its stage times. *)
let run_setups sp wl topos =
  let first = ref None and spent = ref 0.0 and reps = ref 0 in
  while
    !reps < setup_min_reps || (!spent < setup_min_ns && !reps < setup_max_reps)
  do
    if !reps > 0 then Spans.span sp "runtime.gc_compact" Gc.compact;
    let made = List.map (setup sp ~embedding:wl.embedding) topos in
    let stages = List.map snd made in
    let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 stages in
    let total = sum total_ns in
    spent := !spent +. total;
    add "setup_ns" total;
    add "embed_ns" (sum (fun s -> s.embed_ns));
    add "routing_ns" (sum (fun s -> s.routing_ns));
    add "cycles_ns" (sum (fun s -> s.cycles_ns));
    add "compile_ns" (sum (fun s -> s.compile_ns));
    add "compile_minor" (sum (fun s -> s.compile_minor));
    add "compile_major" (sum (fun s -> s.compile_major));
    if !first = None then begin
      first := Some (List.map fst made);
      (* One standalone dd_bits call per map, outside the set-up clock. *)
      add "dd_bits_ns"
        (List.fold_left
           (fun acc ((w : world), _) ->
             acc
             +. snd
                  (Spans.time sp "routing.dd_bits" (fun () ->
                       Routing.dd_bits w.routing)))
           0.0 made)
    end;
    incr reps
  done;
  Spans.span sp "runtime.gc_compact" Gc.compact;
  (Option.get !first, !reps)

let heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let heap_note stage =
  Printf.printf "  peak heap after %s: %.0f MB\n%!" stage (heap_mb ())

let sum_counters l =
  let total = Kernel.fresh_counters () in
  List.iter (fun c -> Kernel.add_counters ~into:total c) l;
  total

let run_workload wl ~seed ~seconds ~trace =
  let sp = Spans.create ~on:trace in
  let rng = Pr_util.Rng.create ~seed in
  let topos = wl.maps () in
  Spans.span sp "bench.run" @@ fun () ->
  let first_sims = wl.first_sims (Pr_util.Rng.split rng) topos in
  let first_outcomes =
    List.map
      (fun s ->
        let o, ns =
          Spans.time sp "bench.sim" (fun () -> engine sp ~backend:`Compiled s)
        in
        add "sim" ns;
        check "engine run" true ~ops:(List.length s.injections);
        o)
      first_sims
  in
  let worlds, setup_reps = run_setups sp wl topos in
  heap_note "set-up";
  let plan = Spans.span sp "bench.plan" (fun () -> wl.plan sp rng worlds) in
  heap_note "plan";
  let batches = plan.batches in
  let injected = sum_ints batch_packets batches in
  let items = sum_ints (fun b -> Array.length b.items) batches in
  (* Baselines, untimed: one 1-domain run per batch (which also warms
     the caches), and the engine on the reference backend. *)
  let baseline =
    List.map
      (fun b ->
        let c = parallel sp ~domains:1 b in
        check "baseline counts = pre-pass tally" (counts_match c b.tally)
          ~ops:(batch_packets b);
        (b, c))
      batches
  in
  (match plan.expect_loops with
  | None -> ()
  | Some l ->
      let looped = sum_ints (fun (_, c) -> c.Kernel.looped) baseline in
      check "looped walks in the batch" (l > 0 && looped = l) ~ops:1);
  let reference_outcomes =
    List.map (fun s -> engine sp ~backend:`Reference s) plan.sims
  in
  let sim_packets sims = sum_ints (fun s -> List.length s.injections) sims in
  let engine_outcomes = ref first_outcomes in
  (* Kernels for the direct sweeps: one bare, one guarded, one with the
     shortcut rung armed. *)
  let kernels f =
    List.map
      (fun b ->
        let k = Kernel.create b.world.fib in
        f k;
        k)
      batches
  in
  let bare = kernels ignore in
  let guarded = kernels (fun k -> Kernel.set_guard k true) in
  let shortcut =
    kernels (fun k -> Kernel.set_shortcut k (Some Fib.default_sc_width))
  in
  let edit_samples = ref [] in
  (* Every timed leg starts from a compacted heap with no GC debt left
     by the leg before it, so leg order cannot move a leg's time. *)
  let settle () = Spans.span sp "runtime.gc_settle" Gc.compact in
  (* A timed leg: [run] over every batch under one clock, then
     [verify] on each batch's result, outside the clock. *)
  let reps = Hashtbl.create 16 and warming = ref false in
  let leg name run verify =
    let r = Option.value ~default:1 (Hashtbl.find_opt reps name) in
    settle ();
    let results, ns =
      Spans.time sp ("bench." ^ name) (fun () ->
          List.init r (fun _ -> List.map run batches))
    in
    if !warming then
      Hashtbl.replace reps name
        (max 1 (int_of_float (Float.ceil (sample_ns /. Float.max 1.0 ns))))
    else add name (ns /. float_of_int r);
    List.iter (List.iter2 verify batches) results
  in
  let forward name ~domains () =
    leg name (parallel sp ~domains) (fun b c ->
        check (name ^ " counters = 1-domain baseline")
          (Kernel.equal_counters c (List.assq b baseline))
          ~ops:(batch_packets b))
  in
  let reference () =
    leg "ref" (reference sp) (fun b r ->
        check "Forward.run tally = kernel counters"
          (reference_matches b (List.assq b baseline) r)
          ~ops:(ref_packets b))
  in
  let edit_leg r =
    let stream = plan.stream r in
    settle ();
    let s, kept = edits sp plan.edit_fib stream ~keep:(plan.keep r) in
    if not !warming then edit_samples := s @ !edit_samples;
    check "edit stream applied" (List.length s = List.length stream)
      ~ops:(List.length s);
    List.iter
      (fun img ->
        let full =
          Spans.span sp "fib.recompile" (fun () -> Delta.recompile img)
        in
        check "Delta image = Delta.recompile" (Fib.equal img full) ~ops:1)
      kept
  in
  let engine_leg sims ~reference () =
    settle ();
    let outs, ns =
      Spans.time sp "bench.sim" (fun () ->
          List.map (engine sp ~backend:`Compiled) sims)
    in
    add "sim" ns;
    let ops = sim_packets sims in
    match !engine_outcomes with
    | [] ->
        engine_outcomes := outs;
        if reference <> [] then
          check "engine: compiled = reference backend"
            (List.for_all2 same_outcome outs reference)
            ~ops
        else check "engine run" true ~ops
    | first ->
        check "engine outcome repeats" (List.for_all2 same_outcome first outs)
          ~ops
  in
  let by_batch l b = List.assq b (List.combine batches l) in
  let direct name kernels ~exact () =
    leg name
      (fun b ->
        let k = by_batch kernels b in
        Spans.span sp "kernel.sweep" (fun () -> sweep sp k b))
      (fun b c ->
        let ok =
          if exact then counts_match c b.tally
          else c.Kernel.injected = b.tally.injected
        in
        check (name ^ " verdicts") ok ~ops:(batch_packets b))
  in
  let split_passes = ref 0 in
  let split_sweep () =
    leg "split"
      (fun b ->
        if b == List.hd batches then incr split_passes;
        sweep ~split_clock:true sp (by_batch bare b) b)
      (fun b c ->
        check "split sweep verdicts" (counts_match c b.tally)
          ~ops:(batch_packets b))
  in
  let plain () =
    let minor0 = Gc.minor_words () in
    direct "plain" bare ~exact:true ();
    let r = Option.value ~default:1 (Hashtbl.find_opt reps "plain") in
    if not !warming then
      add "plain_minor" ((Gc.minor_words () -. minor0) /. float_of_int r)
  in
  let observer name f () =
    leg name f (fun b c ->
        check (name ^ " verdicts") (counts_match c b.tally)
          ~ops:(batch_packets b))
  in
  let forwarding =
    [
      (fun () -> forward "k1" ~domains:1 ());
      (fun () -> forward "k2" ~domains:par_domains ());
      reference;
    ]
    @
    if not trace then []
    else
      [
        split_sweep;
        plain;
        direct "guard" guarded ~exact:true;
        direct "shortcut" shortcut ~exact:false;
        observer "probe" (probed sp ~sketch:false);
        observer "sketch" (probed sp ~sketch:true);
        observer "linkload" (loaded sp);
      ]
  in
  (* One untimed pass over the forwarding legs and the edit stream warms
     the caches, grows the heap to its working size and sets each
     forwarding leg's repetitions per sample. *)
  warming := true;
  List.iter (fun f -> f ()) forwarding;
  edit_leg (-1);
  warming := false;
  let legs =
    List.map (fun f _ -> f ()) forwarding
    @ [ edit_leg ]
    @
    if plan.sims = [] then []
    else [ (fun _ -> engine_leg plan.sims ~reference:reference_outcomes ()) ]
  in
  let legs = Array.of_list legs in
  let n_legs = Array.length legs in
  let t0 = Spans.now () in
  let elapsed () = Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e9 in
  (* Each leg's runs so far and the wall time they took. *)
  let runs = Array.make n_legs 0 and spent = Array.make n_legs 0.0 in
  let run i =
    let t = elapsed () in
    legs.(i) runs.(i);
    runs.(i) <- runs.(i) + 1;
    spent.(i) <- spent.(i) +. (elapsed () -. t)
  in
  (* Three full rounds, the leg order rotated by one each round; then,
     until the time is up, the leg with the least time so far runs
     next, so short legs collect more samples than long ones. *)
  for r = 0 to 2 do
    for i = 0 to n_legs - 1 do
      run ((i + r) mod n_legs)
    done
  done;
  while elapsed () < seconds do
    let next = ref 0 in
    Array.iteri (fun i t -> if t < spent.(!next) then next := i) spent;
    run !next
  done;
  let leg_runs = Array.fold_left ( + ) 0 runs in
  let window_s = elapsed () in
  heap_note "rounds";
  fun () ->
  (* ---- metrics ---- *)
  let counters = sum_counters (List.map snd baseline) in
  let loss, stretch =
    if plan.engine_headline then begin
      let ms =
        List.map (fun (o : Engine.outcome) -> o.Engine.metrics) !engine_outcomes
      in
      let s f = sum_ints f ms in
      let lost =
        s (fun m -> m.Pr_sim.Metrics.dropped + m.Pr_sim.Metrics.looped)
      in
      let deliverable =
        s (fun m -> m.Pr_sim.Metrics.injected - m.Pr_sim.Metrics.unreachable)
      in
      let delivered = s (fun m -> m.Pr_sim.Metrics.delivered) in
      let stretch_sum =
        List.fold_left (fun acc m -> acc +. m.Pr_sim.Metrics.stretch_sum) 0.0 ms
      in
      ( float_of_int lost /. float_of_int (max 1 deliverable),
        stretch_sum /. float_of_int (max 1 delivered) )
    end
    else
      let c = counters in
      ( float_of_int (c.Kernel.dropped + c.Kernel.looped)
        /. float_of_int (max 1 (c.Kernel.injected - c.Kernel.unreachable)),
        c.Kernel.stretch_sum /. float_of_int (max 1 c.Kernel.delivered) )
  in
  let edits = !edit_samples in
  let update_ms =
    List.map (fun e -> (e.apply_ns +. e.publish_ns) /. 1e6) edits
  in
  let ref_packets = sum_ints ref_packets batches in
  let n_edits = List.length edits in
  let fp = Fib.footprint plan.footprint_fib in
  let sims_for_sim = if plan.sims <> [] then plan.sims else first_sims in
  let peak_heap_mb = heap_mb () in
  Printf.printf
    "workload %s: seed %d, nproc %d, domains 1 and %d, %d set-up(s), %d \
     leg run(s) in %.1f s\n"
    wl.name seed nproc par_domains setup_reps leg_runs window_s;
  Printf.printf
    "  %d failure set(s), %d packet(s) (%d delivered, %d dropped, %d \
     looped, %d unreachable), %d reference walk(s), %d edit sample(s), %d \
     engine packet(s)\n"
    items injected counters.Kernel.delivered counters.Kernel.dropped
    counters.Kernel.looped counters.Kernel.unreachable ref_packets n_edits
    (sim_packets sims_for_sim);
  List.iter
    (fun name ->
      match get name with
      | [] -> ()
      | l ->
          Printf.printf "  %-8s n %3d  min %.4g  median %.4g  max %.4g\n" name
            (List.length l)
            (List.fold_left Float.min infinity l)
            (median l)
            (List.fold_left Float.max neg_infinity l))
    [ "setup_ns"; "k1"; "k2"; "ref"; "sim"; "split"; "plain"; "guard";
      "shortcut"; "probe"; "sketch"; "linkload" ];
  Printf.printf "  update   n %3d  p10 %.4g  p25 %.4g  p50 %.4g  p75 %.4g  p90 %.4g ms\n"
    n_edits (percentile 0.1 update_ms) (percentile 0.25 update_ms)
    (percentile 0.5 update_ms) (percentile 0.75 update_ms)
    (percentile 0.9 update_ms);
  let e2e =
    [
      ("setup_s", med "setup_ns" /. 1e9, "s");
      ("fwd_ns_per_packet", med "k1" /. float_of_int injected, "ns");
      ("ref_ns_per_packet", med "ref" /. float_of_int ref_packets, "ns");
      ("update_ms_p50", median update_ms, "ms");
      ("update_ms_p99", percentile 0.99 update_ms, "ms");
      ( "sim_us_per_packet",
        med "sim" /. 1e3 /. float_of_int (sim_packets sims_for_sim),
        "us" );
      ("loss_ratio", loss, "ratio");
      ("stretch_mean", stretch, "ratio");
      ("fib_bytes_per_router", fp.Fib.bytes_per_router, "B/router");
      ("peak_heap_mb", peak_heap_mb, "MB");
    ]
  in
  let per_layer () =
    let all_hops b =
      b.tally.hops_delivered + b.tally.hops_dropped + b.tally.hops_looped
    in
    let hops = sum_ints all_hops batches in
    let t f = sum_ints (fun b -> f b.tally) batches in
    let per_hop span h =
      if h = 0 then 0.0
      else Spans.total sp span /. float_of_int !split_passes /. float_of_int h
    in
    let ref_hops =
      sum_ints
        (fun b ->
          b.tally.hops_delivered + b.tally.hops_dropped
          + if b.ref_loops then b.tally.hops_looped else 0)
        batches
    in
    let ratio a b = if med b > 0.0 then med a /. med b else 0.0 in
    let planes =
      List.map
        (fun (p : Fib.plane) ->
          ( "fib.plane_bytes." ^ p.Fib.plane,
            float_of_int p.Fib.bytes /. float_of_int (Fib.n plan.footprint_fib),
            "B/router" ))
        fp.Fib.planes
    in
    let outs = !engine_outcomes in
    let self = Spans.self_by_layer sp in
    let self_of l =
      Option.value ~default:0.0 (Hashtbl.find_opt self l) /. 1e9
    in
    let root_s = Spans.total sp "bench.run" /. 1e9 in
    (* Everything the layer spans do not cover: the root's own time and
       the benchmark's structural spans. *)
    let uncovered = self_of "bench" in
    let coverage = if root_s > 0.0 then 1.0 -. (uncovered /. root_s) else 0.0 in
    check "trace coverage >= 0.9" (coverage >= 0.9) ~ops:1;
    let layers =
      [ "embed"; "routing"; "cycle_table"; "fib"; "delta"; "swap"; "kernel";
        "parallel"; "forward"; "engine"; "observer"; "runtime" ]
    in
    Printf.printf "  self time by layer (s), wall %.3f s:\n" root_s;
    List.iter
      (fun l -> Printf.printf "    %-12s %10.4f\n" l (self_of l))
      layers;
    Printf.printf "    %-12s %10.4f  (not covered by a layer span)\n"
      "remainder" uncovered;
    [
      ("embed.s", med "embed_ns" /. 1e9, "s");
      ("routing.build_s", med "routing_ns" /. 1e9, "s");
      ("routing.dd_bits_ms", med "dd_bits_ns" /. 1e6, "ms");
      ("cycle_table.build_s", med "cycles_ns" /. 1e9, "s");
      ("fib.compile_s", med "compile_ns" /. 1e9, "s");
      ("fib.compile_minor_mwords", med "compile_minor" /. 1e6, "Mwords");
      ("fib.compile_major_mwords", med "compile_major" /. 1e6, "Mwords");
    ]
    @ planes
    @ [
        ( "delta.apply_ms_p50",
          median (List.map (fun e -> e.apply_ns /. 1e6) edits),
          "ms" );
        ( "delta.dirty_share",
          mean
            (List.map
               (fun e ->
                 float_of_int e.dirty /. float_of_int (Fib.n plan.edit_fib))
               edits),
          "ratio" );
        ( "delta.full_share",
          mean (List.map (fun e -> if e.full then 1.0 else 0.0) edits),
          "ratio" );
        ( "swap.publish_us",
          median (List.map (fun e -> e.publish_ns /. 1e3) edits),
          "us" );
        ("update.samples", float_of_int n_edits, "count");
        ( "kernel.set_failures_us",
          Spans.total sp "kernel.set_failures"
          /. float_of_int (max 1 (Spans.count sp "kernel.set_failures"))
          /. 1e3,
          "us" );
        ( "kernel.delivered_ns_per_hop",
          per_hop "kernel.delivered" (t (fun x -> x.hops_delivered)),
          "ns" );
        ( "kernel.looped_ns_per_hop",
          per_hop "kernel.looped" (t (fun x -> x.hops_looped)),
          "ns" );
        ( "kernel.looped_hop_share",
          float_of_int (t (fun x -> x.hops_looped))
          /. float_of_int (max 1 hops),
          "ratio" );
        ( "kernel.looped_walks",
          float_of_int (t (fun x -> x.n_looped)),
          "count" );
        ( "kernel.slowpath_share",
          float_of_int (t (fun x -> x.slow)) /. float_of_int (max 1 injected),
          "ratio" );
        ( "kernel.hops_per_packet",
          float_of_int hops /. float_of_int (max 1 (t walked)),
          "hops" );
        ( "kernel.minor_words_per_packet",
          med "plain_minor" /. float_of_int injected,
          "words" );
        (* The best 2-domain sample: on a shared host the second core is
           taken at times, and a median would measure the host. *)
        ( "fwd_ns_per_packet_par",
          best "k2" /. float_of_int (max 1 injected),
          "ns" );
        ( "parallel.speedup_par",
          (if best "k2" > 0.0 then med "k1" /. best "k2" else 0.0),
          "ratio" );
        ( "parallel.overhead_us_per_item",
          (med "k1" -. med "plain") /. float_of_int (max 1 items) /. 1e3,
          "us" );
        ( "forward.ns_per_hop",
          med "ref" /. float_of_int (max 1 ref_hops),
          "ns" );
        ( "engine.epochs",
          float_of_int
            (sum_ints (fun (o : Engine.outcome) -> o.Engine.epochs) outs),
          "count" );
        ( "engine.spf_runs",
          float_of_int
            (sum_ints (fun (o : Engine.outcome) -> o.Engine.spf_runs) outs),
          "count" );
        ( "engine.stale_view_drops",
          float_of_int
            (sum_ints
               (fun (o : Engine.outcome) ->
                 Pr_sim.Metrics.drop_count o.Engine.metrics
                   Pr_sim.Metrics.Stale_view)
               outs),
          "count" );
        ("observer.probe_ratio", ratio "probe" "k1", "ratio");
        ("observer.sketch_ratio", ratio "sketch" "k1", "ratio");
        ("observer.linkload_ratio", ratio "linkload" "k1", "ratio");
        ("observer.guard_ratio", ratio "guard" "plain", "ratio");
        ("observer.shortcut_ratio", ratio "shortcut" "plain", "ratio");
        ("trace.coverage", coverage, "ratio");
        ("trace.uncovered_s", uncovered, "s");
      ]
    @ List.map (fun l -> ("self_s." ^ l, self_of l, "s")) layers
  in
  (e2e, per_layer)

(* ---- Output ---- *)

let json_metrics l =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       l)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let tracing = !trace = 1 in
  let finish, wall_ns =
    Spans.time (Spans.create ~on:false) "bench.wall" (fun () ->
        run_workload wl ~seed:!seed ~seconds:!seconds ~trace:tracing)
  in
  let e2e, per_layer = finish () in
  Printf.printf "  run wall time %.3f s (tracing %s)\n" (wall_ns /. 1e9)
    (if tracing then "on" else "off");
  let metrics = if tracing then per_layer () else e2e in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  check "every metric is a finite number" finite ~ops:1;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed (json_metrics metrics);
  exit (if !failed = 0 then 0 else 1)
