(* Host-side measurement: monotonic clock, memory high-water mark, and GC
   time read back from the runtime's own event ring. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* [timed f] is [f ()] and the host seconds it took. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Peak resident set of this process in MB (VmHWM), or the OCaml major
   heap's high-water mark where /proc is unavailable. *)
let peak_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ | Scanf.Scan_failure _ -> None) with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* GC host time from [Runtime_events]: a cursor on this process sums the
   wall time of every outermost collection phase.  [start] must run before
   the code to be measured; [poll] drains the ring and must be called often
   enough that it does not wrap (the ring size is set by OCAMLRUNPARAM=e). *)
module Gc_time = struct
  let gc_phase : Runtime_events.runtime_phase -> bool = function
    | EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE
    | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
    | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let cursor = ref None
  let depth = ref 0
  let opened = ref 0L
  let total_ns = ref 0L
  let lost = ref 0

  let callbacks =
    let ts t = Runtime_events.Timestamp.to_int64 t in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t ph ->
        if gc_phase ph then begin
          if !depth = 0 then opened := ts t;
          incr depth
        end)
      ~runtime_end:(fun _ t ph ->
        if gc_phase ph && !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            total_ns := Int64.add !total_ns (Int64.sub (ts t) !opened)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
    | None -> ()

  (* Drain pending events and zero the totals. *)
  let reset () =
    poll ();
    total_ns := 0L;
    lost := 0

  let read_seconds () =
    poll ();
    Int64.to_float !total_ns /. 1e9

  let lost_events () = !lost
end
