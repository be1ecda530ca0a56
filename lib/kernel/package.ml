(* Packaging a policy core as a uniform [Engine.t].

   [ops_array] builds one [tx_ops] per descriptor up front, so the
   per-transaction fast path allocates no closures; each op keeps one
   combined [hooks_on] check on the everything-off fast path, with the
   individual collector flags only consulted behind it; every thread
   shares one [alloc] closure.  [read] and [write] are the engine's own
   top-level access functions, applied to the engine state [env] at each
   access: an op reaches them in one call, with no partial-application
   closure in between.  [read_hooked]/[write_hooked] are the
   collector-on path of an access, also used by SwissTM, which builds its
   own table so that its fast path calls its access functions directly.
   [make] wires the table to [Driver.run] directly,
   so a transaction pays no extra closure hop between [Engine.atomic]
   and the retry loop. *)

open Stm_intf

(* The collector-on path of an access: profiler phase around the
   engine's own access function, then the trace event. *)
let read_hooked read env d ~tid addr =
  if !Runtime.Exec.prof_on then Runtime.Exec.set_phase tid Runtime.Exec.ph_read;
  let v = read env d addr in
  if !Runtime.Exec.prof_on then Runtime.Exec.set_phase tid Runtime.Exec.ph_other;
  if !Trace.enabled then Trace.on_read ~tid ~addr ~value:v;
  v

let write_hooked write env d ~tid addr v =
  if !Runtime.Exec.prof_on then Runtime.Exec.set_phase tid Runtime.Exec.ph_write;
  write env d addr v;
  if !Runtime.Exec.prof_on then Runtime.Exec.set_phase tid Runtime.Exec.ph_other;
  if !Trace.enabled then Trace.on_write ~tid ~addr ~value:v

let ops_array ~heap ~descs ~env ~(read : 'e -> Txdesc.t -> int -> int)
    ~(write : 'e -> Txdesc.t -> int -> int -> unit) =
  let alloc n = Memory.Heap.alloc heap n in
  Array.init Stats.max_threads (fun tid ->
      let d = descs.(tid) in
      {
        Engine.read =
          (fun addr ->
            if !Runtime.Exec.hooks_on then read_hooked read env d ~tid addr
            else read env d addr);
        write =
          (fun addr v ->
            if !Runtime.Exec.hooks_on then write_hooked write env d ~tid addr v
            else write env d addr v);
        alloc;
        free = (fun addr n -> Txdesc.buffer_free d addr n);
      })

let make ~name ~heap ~stats ~ops ~(driver : Driver.ops) : Engine.t =
  {
    Engine.name;
    heap;
    atomic =
      (fun ~tid f ->
        Driver.run driver ~tid ~irrevocable:false (fun _ -> f ops.(tid)));
    atomic_irrevocable =
      (fun ~tid f ->
        Driver.run driver ~tid ~irrevocable:true (fun _ -> f ops.(tid)));
    stats = (fun () -> Stats.snapshot stats);
    reset_stats = (fun () -> Stats.reset stats);
  }
