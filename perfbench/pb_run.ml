(* Workload table, the pass loop, and the result line.

   A run makes a fixed number of untraced passes, set by --seconds.  Pass
   [k] builds everything from its own sub-seed, derived from the run's
   seed, so a run averages over several independent inputs: the simulated
   metrics are means over the passes, the host times medians.  The simulator
   is deterministic, so a seed gives the same simulated results on any
   host.  With tracing on, a final traced pass replays the first sub-seed
   and gives the per-layer numbers; it must reproduce that pass's
   simulated results exactly. *)

type size = Full | Tiny

type kind = Sb7 of Pb_work.sb7 | Service of Pb_work.service

type workload = {
  name : string;
  why : string;
  kind : kind;
  pass_s : float;  (** nominal host seconds per pass, setup included *)
}

(* The STMBench7 structure at the scale-out study's smoke scale (0.35: same
   multi-level shape, smaller populations).  A long traversal then costs a
   third as much, so a run holds three times as many of them, and the
   throughput of a run no longer hinges on how a handful of them fared. *)
let sb7_params ~size ~threads =
  let p =
    Stmbench7.Sb7_params.with_scale
      (match size with Full -> 0.35 | Tiny -> 0.2)
      Stmbench7.Sb7_params.default
  in
  (* Structure-creating operations allocate per writer, and aborted
     attempts leak what they allocated: give every core part-slot (and so
     heap) headroom, four times what the scale-out study gives. *)
  { p with Stmbench7.Sb7_params.part_capacity_slack = 20 + (16 * threads) }

let workloads size =
  let tiny full small = match size with Full -> full | Tiny -> small in
  [
    {
      name = "sb7-read-8t";
      why =
        "paper headline cell: SwissTM on the STMBench7 read-dominated mix at 8 \
         threads; long read-only traversals load read/validate and Sim dispatch";
      kind =
        Sb7
          {
            spec = Engines.swisstm;
            mix = Stmbench7.Sb7_bench.Read_dominated;
            long_traversals = true;
            threads = 8;
            topology = Runtime.Topology.flat;
            params = sb7_params ~size ~threads:8;
            duration_cycles = tiny 12_000_000 300_000;
          };
      pass_s = 3.3;
    };
    {
      name = "sb7-rw-256c";
      why =
        "TL2 (kernel layer, GV4 clock) on the read-write mix at 256 cores on 8x32 \
         NUMA sockets: heap dispatch, coherence, directory queues, CM back-off";
      kind =
        Sb7
          {
            spec = Engines.tl2;
            mix = Stmbench7.Sb7_bench.Read_write;
            long_traversals = false;
            threads = 256;
            topology = Runtime.Topology.make ~sockets:8 ~cores_per_socket:32;
            params = sb7_params ~size ~threads:256;
            duration_cycles = tiny 8_000_000 40_000;
          };
      pass_s = 1.3;
    };
    {
      name = "service-zipf-8t";
      why =
        "open-loop SwissTM service, Poisson ladder around capacity, Zipf 0.99 \
         hot-key checkouts on 8 cores: queueing turns small savings into tail";
      kind =
        Service
          {
            base =
              {
                Harness.Service.default with
                threads = 8;
                theta = 0.99;
                window_cycles = 100_000;
              };
            rates = tiny [ 1200.; 1400.; 1550.; 1700.; 1850.; 2000. ] [ 1200.; 2000. ];
            reference_rate = 1200.;
            requests = tiny 40_000 300;
            slo_cycles = 60_000;
            backlog_limit = 0.02;
          };
      pass_s = 2.4;
    };
  ]

let find size name = List.find_opt (fun w -> w.name = name) (workloads size)

let failed_pass msg =
  {
    Pb_work.setup_s = 0.;
    host_s = 0.;
    attempted = 1;
    failed = 1;
    checks = [ (msg, false) ];
    accesses = 0;
    sim = [];
    samples = 0;
    tail = "";
    fingerprint = [];
    layer = [];
    notes = [];
  }

(* A simulator livelock, an engine refusing the thread count, or heap
   exhaustion fails the pass as one failed operation; the run goes on.
   So does any other exception, which is reported by name: the run then
   still ends with a result line, marked incorrect. *)
let run_pass w ~seed ~traced =
  (* Start every pass from a collected heap, so one pass's garbage is not
     charged to the next. *)
  Gc.full_major ();
  try
    match w.kind with
    | Sb7 s -> Pb_work.sb7_pass s ~seed ~traced
    | Service s -> Pb_work.service_pass s ~seed ~traced
  with
  | Runtime.Sim.Timeout c ->
      failed_pass (Printf.sprintf "Sim.Timeout at %d cycles" c)
  | Stm_intf.Engine.Unsupported_thread_count { engine; tid; limit } ->
      failed_pass
        (Printf.sprintf "%s refused tid %d (limit %d)" engine tid limit)
  | Memory.Heap.Out_of_memory { capacity; requested } ->
      failed_pass
        (Printf.sprintf "heap exhausted: %d words requested of %d" requested
           capacity)
  | e -> failed_pass ("uncaught exception " ^ Printexc.to_string e)

(* Extra set-ups per run, timed alone, so [setup_s] is a median of
   several even when few passes fit. *)
let setup_trials = 5

let setup_trial w ~seed =
  Gc.full_major ();
  snd
    (Pb_host.timed (fun () ->
         match w.kind with
         | Sb7 s -> Pb_work.sb7_setup_trial s ~seed
         | Service s -> ignore (Pb_work.service_setup s ~seed)))

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in catalog order *)
  lines : string list;  (** human-readable report *)
}

let finite x = if Float.is_finite x then x else 0.

(* Keys of [b] must read the same in [a]; [b] may hold fewer keys. *)
let same_sim a b =
  List.for_all (fun (k, v) -> List.assoc_opt k a = Some v) b

(* Sub-seed [k] of a run: pass [k] builds everything from it. *)
let sub_seed seed k = (seed * 1000) + k

(* Passes per run: fixed by --seconds and the workload's nominal pass time,
   never by how fast the host happens to be, so a seed's simulated results
   do not depend on the machine. *)
let passes_for w ~seconds =
  max 2 (min 999 (int_of_float (seconds /. w.pass_s)))

(* A safety stop for a host far slower than the nominal pass times assume:
   no untraced pass starts once this many host seconds have gone by, so
   the run still ends well inside run.py's time limit.  At nominal speed
   a run ends near [seconds] and never reaches it. *)
let deadline_s ~seconds = Float.min (3. *. seconds) 100.

(* [f 0], [f 1], ... [f (k - 1)], stopping early once [deadline] host
   seconds have passed since [t0]; at least two passes always run. *)
let passes_until ~t0 ~deadline k f =
  let rec go i acc =
    if i >= k || (i >= 2 && Pb_host.seconds_since t0 > deadline) then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let run ?(size = Full) ?trace_out ~workload ~seed ~seconds ~traced () =
  let w =
    match find size workload with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let t0 = Pb_host.now_ns () in
  let k = passes_for w ~seconds in
  let k = if traced then max 1 (k / 2) else k in
  let trial_setups = List.init setup_trials (fun _ -> setup_trial w ~seed) in
  let passes =
    passes_until ~t0 ~deadline:(deadline_s ~seconds) k (fun i ->
        run_pass w ~seed:(sub_seed seed i) ~traced:false)
  in
  let peak_mb = Pb_host.peak_mb () in
  let traced_pass =
    if not traced then None
    else begin
      Pb_trace.reset ();
      Pb_trace.on := true;
      let p =
        Fun.protect
          ~finally:(fun () -> Pb_trace.on := false)
          (fun () -> run_pass w ~seed:(sub_seed seed 0) ~traced:true)
      in
      Option.iter (Pb_trace.write ~workload) trace_out;
      Some p
    end
  in
  let all = passes @ Option.to_list traced_pass in
  let good = List.filter (fun (p : Pb_work.pass) -> p.failed < p.attempted) passes in
  let attempted = List.fold_left (fun a (p : Pb_work.pass) -> a + p.attempted) 0 all in
  let failed = List.fold_left (fun a (p : Pb_work.pass) -> a + p.failed) 0 all in
  let first = List.hd passes in
  let checks =
    List.concat_map (fun (p : Pb_work.pass) -> p.checks) all
    @ (if good = [] then [ ("at least one pass completed", false) ] else [])
    @
    match traced_pass with
    | Some t ->
        [
          ( "traced pass reproduces the untraced simulated results",
            t.fingerprint <> [] && same_sim first.fingerprint t.fingerprint );
        ]
    | None -> []
  in
  let correct = List.for_all snd checks in
  let med f = match good with [] -> 0. | _ -> Pb_stats.median_float (List.map f good) in
  let sum f = List.fold_left (fun a p -> a +. f p) 0. good in
  let metrics =
    if good = [] then []
    else if not traced then
      let host_s = med (fun p -> p.Pb_work.host_s) in
      [
        ("host_s", host_s);
        ( "setup_s",
          Pb_stats.median_float
            (trial_setups @ List.map (fun (p : Pb_work.pass) -> p.setup_s) good) );
        ("host_peak_mb", peak_mb);
        ( "accesses_per_host_s",
          sum (fun p -> float_of_int p.Pb_work.accesses) /. sum (fun p -> p.Pb_work.host_s) );
      ]
      (* Simulated metrics carry no host noise, so there is no outlier to
         guard against: each pass is an independent input, and their mean
         is the run's estimate. *)
      @ List.map
          (fun (name, _) ->
            ( name,
              sum (fun p -> Option.value (List.assoc_opt name p.Pb_work.sim) ~default:0.)
              /. float_of_int (List.length good) ))
          first.sim
    else
      let t = Option.get traced_pass in
      (* The service's traced pass runs with its SLO collector off, so the
         SLO attribution comes from the untraced pass of the same sub-seed,
         which is the same simulated schedule. *)
      let from_untraced k =
        String.starts_with ~prefix:"slo." k || String.starts_with ~prefix:"service." k
      in
      List.map
        (fun (k, v) ->
          if from_untraced k then (k, Option.value (List.assoc_opt k first.layer) ~default:v)
          else (k, v))
        t.layer
      @ [
          ( "trace.overhead_share",
            if first.host_s > 0. then (t.host_s /. first.host_s) -. 1. else 0. );
          ("op.samples", float_of_int first.samples);
          ("error_ratio", Pb_stats.ratio failed attempted);
        ]
  in
  let catalog = if traced then Pb_catalog.per_layer else Pb_catalog.end_to_end in
  let metrics =
    List.map
      (fun (k, _) -> (k, finite (Option.value (List.assoc_opt k metrics) ~default:0.)))
      catalog
  in
  let lines =
    [
      Printf.sprintf "workload %s  seed %d  untraced passes %d (sub-seeds %d..%d)%s"
        w.name seed (List.length passes) (sub_seed seed 0)
        (sub_seed seed (List.length passes - 1))
        (if traced then "  traced passes 1 (first sub-seed)" else "");
      "why: " ^ w.why;
    ]
    @ (if List.length passes < k then
         [
           Printf.sprintf
             "warning: host deadline reached, %d of %d passes ran; simulated \
              means cover fewer inputs than usual"
             (List.length passes) k;
         ]
       else [])
    @ List.map (fun n -> "first pass: " ^ n) first.notes
    @ List.map
        (fun (name, _) ->
          Printf.sprintf "per pass %s: %s" name
            (String.concat " "
               (List.map
                  (fun (p : Pb_work.pass) ->
                    Printf.sprintf "%g" (Option.value (List.assoc_opt name p.sim) ~default:0.))
                  good)))
        first.sim
    @ [
        "host seconds per untraced pass (setup + run): "
        ^ String.concat " "
            (List.map
               (fun (p : Pb_work.pass) -> Printf.sprintf "%.4f+%.4f" p.setup_s p.host_s)
               passes);
      ]
    @ List.map
        (fun (k, v) ->
          let u = List.assoc k catalog in
          let extra =
            match k with
            | "sim_p50_cycles" | "sim_tail_cycles" ->
                Printf.sprintf "  (mean of %d passes, n=%d in the first%s)"
                  (List.length good) first.samples
                  (if k = "sim_tail_cycles" then ", percentile " ^ first.tail else "")
            | _ -> ""
          in
          Printf.sprintf "%-32s %16.6g %s%s" k v u extra)
        metrics
    @ Printf.sprintf "checks passed: %d of %d"
        (List.length (List.filter snd checks))
        (List.length checks)
      :: List.filter_map
           (fun (c, ok) -> if ok then None else Some ("check FAILED: " ^ c))
           checks
    @ (match traced_pass with Some t -> t.notes | None -> [])
  in
  { correct; attempted; failed; metrics; lines }

let result_json r =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool r.correct);
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ( "metrics",
        Obj
          (List.map
             (fun (k, v) ->
               let u = Option.value (Pb_catalog.unit_of k) ~default:"" in
               (k, Obj [ ("value", Float v); ("unit", Str u) ]))
             r.metrics) );
    ]
