(* The pieces every workload is built from: set-up (topology to a
   published image), the untimed pre-pass that labels components and
   tallies verdicts, and the timed legs — batch forwarding on 1 and 2
   domains, the direct kernel sweep, the reference walk, the observer
   arms, the edit stream and the engine. *)

module Graph = Pr_graph.Graph
module Topology = Pr_topo.Topology
module Rotation = Pr_embed.Rotation
module Failure = Pr_core.Failure
module Forward = Pr_core.Forward
module Routing = Pr_core.Routing
module Cycle_table = Pr_core.Cycle_table
module Fib = Pr_fastpath.Fib
module Delta = Pr_fastpath.Fib.Delta
module Kernel = Pr_fastpath.Kernel
module Parallel = Pr_fastpath.Parallel
module Swap = Pr_fastpath.Swap
module Probe = Pr_telemetry.Probe
module Engine = Pr_sim.Engine
module Workload = Pr_sim.Workload

(* ---- Set-up ---- *)

type embedding = Recommend | Geometric

type world = {
  topo : Topology.t;
  rotation : Rotation.t;
  routing : Routing.t;
  cycles : Cycle_table.t;
  fib : Fib.t;  (* the published epoch-0 image *)
}

type stages = {
  embed_ns : float;
  routing_ns : float;
  cycles_ns : float;
  compile_ns : float;
  publish_ns : float;
  compile_minor : float;  (* words allocated by the compile *)
  compile_major : float;
}

let total_ns s =
  s.embed_ns +. s.routing_ns +. s.cycles_ns +. s.compile_ns +. s.publish_ns

(* The embedding seed is a deployment constant (the value the paper
   figures use), not the benchmark seed: the maps and their embeddings
   are fixed inputs, as a deployed network's would be. *)
let embedding_seed = 42

let setup sp ~embedding topo =
  let rotation, embed_ns =
    Spans.time sp "embed.rotation" (fun () ->
        match embedding with
        | Recommend -> Pr_embed.Recommend.rotation ~seed:embedding_seed topo
        | Geometric -> Pr_embed.Geometric.of_topology topo)
  in
  let g = topo.Topology.graph in
  let routing, routing_ns =
    Spans.time sp "routing.build" (fun () -> Routing.build g)
  in
  let cycles, cycles_ns =
    Spans.time sp "cycle_table.build" (fun () -> Cycle_table.build rotation)
  in
  let gc0 = Gc.quick_stat () in
  let fib, compile_ns =
    Spans.time sp "fib.compile" (fun () -> Fib.of_tables_exn routing cycles)
  in
  let gc1 = Gc.quick_stat () in
  let fib, publish_ns =
    Spans.time sp "swap.publish" (fun () -> Swap.current (Swap.create fib))
  in
  ( { topo; rotation; routing; cycles; fib },
    {
      embed_ns;
      routing_ns;
      cycles_ns;
      compile_ns;
      publish_ns;
      compile_minor = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      compile_major = gc1.Gc.major_words -. gc0.Gc.major_words;
    } )

(* ---- Pairs, labels and the verdict pre-pass ---- *)

(* A pair packed into one int, so the sweeps read one array cell per
   packet; node ids stay below 2^16. *)
let pack src dst = (src lsl 16) lor dst
let src_of p = p lsr 16
let dst_of p = p land 0xffff

let all_pairs n =
  let a = Array.make (n * (n - 1)) (0, 0) in
  let k = ref 0 in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then begin
        a.(!k) <- (s, d);
        incr k
      end
    done
  done;
  a

(* Surviving-graph component labels, one BFS per failure set. *)
let labels failures =
  let g = Failure.graph failures in
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let stack = Stack.create () in
  for root = 0 to n - 1 do
    if label.(root) < 0 then begin
      label.(root) <- root;
      Stack.push root stack;
      while not (Stack.is_empty stack) do
        let x = Stack.pop stack in
        Array.iter
          (fun w ->
            if label.(w) < 0 && Failure.link_up failures x w then begin
              label.(w) <- root;
              Stack.push w stack
            end)
          (Graph.neighbours g x)
      done
    end
  done;
  label

(* One failure set's packets, split by the verdict the pre-pass found,
   so a sweep can time each walk class as one block. *)
type split = {
  failures : Failure.t;
  delivered : int array;
  dropped : int array;
  looped : int array;
  unreachable : int;
}

type tally = {
  mutable injected : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  mutable n_looped : int;
  mutable n_unreachable : int;
  mutable hops_delivered : int;
  mutable hops_dropped : int;
  mutable hops_looped : int;
  mutable slow : int;  (* walks with at least one PR episode *)
}

let fresh_tally () =
  {
    injected = 0;
    n_delivered = 0;
    n_dropped = 0;
    n_looped = 0;
    n_unreachable = 0;
    hops_delivered = 0;
    hops_dropped = 0;
    hops_looped = 0;
    slow = 0;
  }

let walked t = t.n_delivered + t.n_dropped + t.n_looped

(* A classified walk: its verdict, hop count and PR-episode count. *)
type walk = { packed : int; outcome : Forward.outcome; hops : int; pr : bool }

(* Walk every connected pair of one failure set with the kernel's traced
   walk, capped at [ttl] hops.  Returns the walks in pair order and the
   number of unreachable pairs.  Runs before any clock. *)
let classify sp kernel ~ttl failures pairs =
  let label = labels failures in
  Kernel.set_failures kernel failures;
  let unreachable = ref 0 in
  let walks =
    Spans.span sp "kernel.classify" (fun () ->
        Array.fold_left
          (fun acc (src, dst) ->
            if label.(src) <> label.(dst) then begin
              incr unreachable;
              acc
            end
            else
              let r = Kernel.run_one ~ttl kernel ~src ~dst in
              {
                packed = pack src dst;
                outcome = r.Kernel.outcome;
                hops = List.length r.Kernel.path - 1;
                pr = r.Kernel.pr_episodes > 0;
              }
              :: acc)
          [] pairs)
  in
  (List.rev walks, !unreachable)

let is_loop w = w.outcome = Forward.Ttl_exceeded

let is_delivered w = w.outcome = Forward.Delivered

(* Build a split from classified walks and add them to the tally.
   Looped walks count [loop_hops] hops each: they run to the full TTL. *)
let make_split tally ~loop_hops failures walks unreachable =
  let pick p =
    Array.of_list
      (List.filter_map (fun w -> if p w then Some w.packed else None) walks)
  in
  List.iter
    (fun w ->
      if w.pr then tally.slow <- tally.slow + 1;
      if is_delivered w then begin
        tally.n_delivered <- tally.n_delivered + 1;
        tally.hops_delivered <- tally.hops_delivered + w.hops
      end
      else if is_loop w then begin
        tally.n_looped <- tally.n_looped + 1;
        tally.hops_looped <- tally.hops_looped + loop_hops
      end
      else begin
        tally.n_dropped <- tally.n_dropped + 1;
        tally.hops_dropped <- tally.hops_dropped + w.hops
      end)
    walks;
  tally.n_unreachable <- tally.n_unreachable + unreachable;
  tally.injected <- tally.injected + List.length walks + unreachable;
  {
    failures;
    delivered = pick is_delivered;
    dropped = pick (fun w -> not (is_delivered w || is_loop w));
    looped = pick is_loop;
    unreachable;
  }

(* A forwarding workload over one image: the items the Parallel legs
   run, the same packets split by verdict for the direct sweeps, and the
   pre-pass tally every leg is checked against. *)
type batch = {
  world : world;
  items : Parallel.item array;
  splits : split array;
  tally : tally;
  ref_loops : bool;  (* whether the reference leg walks looped packets *)
}

let batch_packets b = b.tally.injected

(* ---- Forwarding legs ---- *)

let parallel sp ~domains b =
  Spans.span sp "parallel.run" (fun () ->
      Parallel.run ~domains ~seed:0 b.world.fib b.items)

let walk_block kernel c arr =
  for i = 0 to Array.length arr - 1 do
    let p = Array.unsafe_get arr i in
    Kernel.forward_into kernel c ~src:(src_of p) ~dst:(dst_of p)
  done

let account_unreachable c s =
  for _ = 1 to s.unreachable do
    Kernel.record_unreachable c
  done

(* The direct kernel sweep: labels were computed in the pre-pass, so the
   clock covers set_failures and the walks only.  With [split_clock]
   each walk class of each failure set is its own span. *)
let sweep ?(split_clock = false) sp kernel b =
  let c = Kernel.fresh_counters () in
  Array.iter
    (fun s ->
      if split_clock then begin
        Spans.span sp "kernel.set_failures" (fun () ->
            Kernel.set_failures kernel s.failures);
        let block name arr =
          if Array.length arr > 0 then
            Spans.span sp name (fun () -> walk_block kernel c arr)
        in
        block "kernel.delivered" s.delivered;
        block "kernel.dropped" s.dropped;
        block "kernel.looped" s.looped
      end
      else begin
        Kernel.set_failures kernel s.failures;
        walk_block kernel c s.delivered;
        walk_block kernel c s.dropped;
        walk_block kernel c s.looped
      end;
      account_unreachable c s)
    b.splits;
  c

type ref_tally = {
  mutable r_delivered : int;
  mutable r_dropped : int;
  mutable r_looped : int;
  mutable r_stretch : float;
}

(* The reference walk over the batch's connected packets. *)
let reference sp b =
  let w = b.world in
  let t = { r_delivered = 0; r_dropped = 0; r_looped = 0; r_stretch = 0.0 } in
  Spans.span sp "forward.run" (fun () ->
      Array.iter
        (fun s ->
          let go p =
            let src = src_of p and dst = dst_of p in
            let trace =
              Forward.run ~routing:w.routing ~cycles:w.cycles
                ~failures:s.failures ~src ~dst ()
            in
            match trace.Forward.outcome with
            | Forward.Delivered ->
                t.r_delivered <- t.r_delivered + 1;
                t.r_stretch <-
                  t.r_stretch
                  +. Forward.stretch ~routing:w.routing ~trace ~src ~dst
            | Forward.Ttl_exceeded -> t.r_looped <- t.r_looped + 1
            | _ -> t.r_dropped <- t.r_dropped + 1
          in
          Array.iter go s.delivered;
          Array.iter go s.dropped;
          if b.ref_loops then Array.iter go s.looped)
        b.splits);
  t

let ref_packets b =
  let t = b.tally in
  t.n_delivered + t.n_dropped + if b.ref_loops then t.n_looped else 0

(* Verdict counts of a leg against the pre-pass tally. *)
let counts_match (c : Kernel.counters) t =
  c.Kernel.injected = t.injected
  && c.Kernel.delivered = t.n_delivered
  && c.Kernel.dropped = t.n_dropped
  && c.Kernel.looped = t.n_looped
  && c.Kernel.unreachable = t.n_unreachable

(* The Forward.run tally against the kernel's counters: equal verdict
   counts, and stretch sums equal up to summation order. *)
let reference_matches b (c : Kernel.counters) r =
  let t = b.tally in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a) in
  r.r_delivered = t.n_delivered
  && r.r_dropped = t.n_dropped
  && r.r_looped = (if b.ref_loops then t.n_looped else 0)
  && ((not b.ref_loops) || close r.r_stretch c.Kernel.stretch_sum)

(* ---- Observer arms ---- *)

let probed sp ~sketch b =
  Spans.span sp "observer.probe" (fun () ->
      let create_probe () = Probe.create ~sketch () in
      fst (Parallel.run_probed ~create_probe ~seed:0 b.world.fib b.items))

let loaded sp b =
  Spans.span sp "observer.linkload" (fun () ->
      fst (Parallel.run_loaded ~seed:0 b.world.fib b.items))

(* ---- The edit stream ---- *)

type edit_sample = {
  apply_ns : float;
  publish_ns : float;
  dirty : int;
  full : bool;
}

(* Apply [stream] one edit at a time from [fib], publishing each image
   through a fresh Swap store.  Returns the samples and the images whose
   index is in [keep] (for the recompile referee). *)
let edits sp fib stream ~keep =
  let store = Swap.create fib in
  let cur = ref fib in
  let kept = ref [] in
  let samples =
    List.mapi
      (fun i e ->
        let (img, st), apply_ns =
          Spans.time sp "delta.apply" (fun () -> Delta.apply_exn !cur [ e ])
        in
        let (_ : int), publish_ns =
          Spans.time sp "swap.publish" (fun () -> Swap.publish store img)
        in
        cur := img;
        if keep i then kept := img :: !kept;
        { apply_ns; publish_ns; dirty = st.Delta.dirty; full = st.Delta.full })
      stream
  in
  (samples, List.rev !kept)

(* A seeded Down/Up stream over [g]'s links, at most [max_down] links
   down at once. *)
let toggle_stream rng g ~edits ~max_down =
  let m = Graph.m g in
  let down = Array.make m false in
  let n_down = ref 0 in
  List.init edits (fun _ ->
      let i =
        if !n_down >= max_down then begin
          let downs =
            Array.of_list
              (List.filter (fun i -> down.(i)) (List.init m Fun.id))
          in
          Pr_util.Rng.pick rng downs
        end
        else Pr_util.Rng.int rng m
      in
      let e = Graph.edge g i in
      let change = if down.(i) then Delta.Up else Delta.Down in
      down.(i) <- not down.(i);
      n_down := !n_down + if down.(i) then 1 else -1;
      { Delta.u = e.Graph.u; v = e.Graph.v; change })

(* ---- The engine ---- *)

type sim = {
  s_topo : Topology.t;
  s_rotation : Rotation.t;
  link_events : Workload.link_event list;
  injections : Workload.injection list;
  detector_seed : int;
}

(* The failure process is part of the scenario, drawn from a fixed
   stream, so every seed replays the same link events; the seed draws
   the traffic and the detector's jitter.  (Which links fail, and for
   how long, decides most of the loss; with the seed drawing it too,
   loss_ratio would swing by a third between seeds.) *)
let failure_seed = 7

let sim_inputs rng topo rotation ~horizon ~rate =
  let g = topo.Topology.graph in
  let link_events =
    Workload.failure_process
      (Pr_util.Rng.create ~seed:failure_seed)
      g ~mtbf:20.0 ~mttr:2.0 ~horizon
  in
  let injections =
    Workload.poisson_flows (Pr_util.Rng.split rng) g ~rate ~horizon
  in
  {
    s_topo = topo;
    s_rotation = rotation;
    link_events;
    injections;
    detector_seed = Pr_util.Rng.int rng 1_000_000;
  }

let engine sp ~backend s =
  Spans.span sp "engine.run" (fun () ->
      Engine.run_exn
        ~detection:{ Pr_sim.Detector.default with seed = s.detector_seed }
        ~backend ~control:Engine.default_control
        {
          Engine.topology = s.s_topo;
          rotation = s.s_rotation;
          scheme =
            Engine.Pr_scheme { termination = Forward.Distance_discriminator };
        }
        ~link_events:s.link_events ~injections:s.injections)

let same_outcome (a : Engine.outcome) (b : Engine.outcome) =
  let pp m = Format.asprintf "%a" Pr_sim.Metrics.pp m in
  pp a.Engine.metrics = pp b.Engine.metrics
  && a.Engine.spf_runs = b.Engine.spf_runs
  && a.Engine.epochs = b.Engine.epochs
  && a.Engine.link_transitions = b.Engine.link_transitions

(* The control-plane edits the sim's failure process implies: one
   single-link edit per link transition, in time order. *)
let sim_edits s =
  List.map
    (fun (ev : Workload.link_event) ->
      {
        Delta.u = min ev.Workload.u ev.Workload.v;
        v = max ev.Workload.u ev.Workload.v;
        change = (if ev.Workload.up then Delta.Up else Delta.Down);
      })
    s.link_events
