(* Spans the benchmark records around its own calls into the library.

   Every timed call goes through [time], which reads the monotonic clock
   before and after.  With tracing on, the call also leaves a span
   (name, parent, start, stop) in memory; the per-layer report is
   computed from those spans once the workload has finished.  A span's
   layer is the part of its name before the first dot, so
   "kernel.looped" and "kernel.set_failures" both belong to "kernel". *)

let now = Pr_telemetry.Probe.now_ns

type span = {
  name : string;
  parent : int;  (* index of the enclosing span, -1 for a root *)
  start : int64;
  mutable stop : int64;
}

type t = {
  on : bool;
  mutable spans : span array;
  mutable len : int;
  mutable innermost : int;
}

let create ~on = { on; spans = [||]; len = 0; innermost = -1 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

(* Run [f], returning its result and its wall time in nanoseconds. *)
let time t name f =
  if not t.on then begin
    let t0 = now () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (now ()) t0))
  end
  else begin
    let idx = t.len in
    let s = { name; parent = t.innermost; start = now (); stop = 0L } in
    push t s;
    t.innermost <- idx;
    let close () =
      s.stop <- now ();
      t.innermost <- s.parent
    in
    match f () with
    | r ->
        close ();
        (r, Int64.to_float (Int64.sub s.stop s.start))
    | exception e ->
        close ();
        raise e
  end

let span t name f = fst (time t name f)

let duration s = Int64.to_float (Int64.sub s.stop s.start)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Total wall time, in ns, of the spans called [name]. *)
let total t name =
  let acc = ref 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.name = name then acc := !acc +. duration s
  done;
  !acc

let count t name =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    if t.spans.(i).name = name then incr acc
  done;
  !acc

(* Self time per layer, in ns: each span's duration minus the part its
   children cover, summed by layer.  Spans of the layer [own] (the
   benchmark's structural spans) are reported like any other layer. *)
let self_by_layer t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
  done;
  let by = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let l = layer_of s.name in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt by l) in
    Hashtbl.replace by l (prev +. duration s -. child.(i))
  done;
  by
