(* In-memory spans for the traced pass, written as one Chrome/Perfetto
   trace file when the run ends.

   Host spans bracket the benchmark's own calls into each layer (setup,
   run, verify and their children) on the monotonic host clock.
   Simulated spans bracket each [Engine.atomic] on the simulated clock
   ([Exec.now]); they go to a separate process row because their time
   base is simulated cycles, not host microseconds. *)

let on = ref false

type host_span = { name : string; parent : string; t0 : int64; t1 : int64 }

let host_spans : host_span list ref = ref []
let stack : string list ref = ref []

(* Simulated operation spans, flattened (tid, start, finish) triples. *)
let sim_spans = ref [||]
let sim_len = ref 0

let reset () =
  host_spans := [];
  stack := [];
  sim_spans := [||];
  sim_len := 0

let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> "" in
    stack := name :: !stack;
    let t0 = Pb_host.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        host_spans := { name; parent; t0; t1 = Pb_host.now_ns () } :: !host_spans)
      f
  end

let sim_span ~tid ~start ~finish =
  if !on then begin
    if 3 * (!sim_len + 1) > Array.length !sim_spans then begin
      let a = Array.make (max 3072 (2 * Array.length !sim_spans)) 0 in
      Array.blit !sim_spans 0 a 0 (3 * !sim_len);
      sim_spans := a
    end;
    let a = !sim_spans and i = 3 * !sim_len in
    a.(i) <- tid;
    a.(i + 1) <- start;
    a.(i + 2) <- finish;
    incr sim_len
  end

let sim_span_count () = !sim_len

let to_json ~workload =
  let open Obs.Json in
  let origin =
    List.fold_left (fun m s -> if s.t0 < m then s.t0 else m) Int64.max_int
      !host_spans
  in
  let us t = Float (Int64.to_float (Int64.sub t origin) /. 1e3) in
  let host =
    List.rev_map
      (fun s ->
        Obj
          [
            ("name", Str s.name);
            ("cat", Str "host");
            ("ph", Str "X");
            ("pid", Int 0);
            ("tid", Int 0);
            ("ts", us s.t0);
            ("dur", Float (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3));
            ("args", Obj [ ("parent", Str s.parent) ]);
          ])
      !host_spans
  in
  let sim =
    List.init !sim_len (fun k ->
        let a = !sim_spans and i = 3 * k in
        Obj
          [
            ("name", Str "Engine.atomic");
            ("cat", Str "sim_cycles");
            ("ph", Str "X");
            ("pid", Int 1);
            ("tid", Int a.(i));
            ("ts", Int a.(i + 1));
            ("dur", Int (a.(i + 2) - a.(i + 1)));
          ])
  in
  Obj
    [
      ("traceEvents", List (host @ sim));
      ( "metadata",
        Obj
          [
            ("workload", Str workload);
            ("pid0", Str "host clock, microseconds");
            ("pid1", Str "simulated clock, cycles");
          ] );
    ]

let write ~workload path =
  Out_channel.with_open_text path (fun oc ->
      Obs.Json.to_channel oc (to_json ~workload))
