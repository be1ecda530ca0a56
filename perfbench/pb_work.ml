(* The workloads and one measured pass of each.

   A pass builds everything from the seed, runs the workload's fixed
   simulated work once, and checks the outputs.  Untraced passes give the
   end-to-end numbers; the traced pass additionally arms the collectors
   below and gives the per-layer numbers.  Every layer is measured from
   outside, through its public functions. *)

open Runtime

type pass = {
  setup_s : float;  (** host seconds: build heap, structure, engine, inputs *)
  host_s : float;  (** host seconds of the simulated run itself *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  accesses : int;  (** simulated transactional reads + writes *)
  sim : (string * float) list;  (** end-to-end simulated metrics *)
  samples : int;  (** latency samples behind sim_p50/sim_tail *)
  tail : string;  (** which percentile sim_tail_cycles holds *)
  fingerprint : (string * int) list;
      (** simulated results that must repeat exactly for a seed *)
  layer : (string * float) list;  (** per-layer values *)
  notes : string list;
}

(* --- collectors armed only in the traced pass --------------------------- *)

type probe = {
  dispatches : int;
  phases : int array;  (** simulated cycles per Obs.Profile phase *)
  cm_kills : int;
  cm_phase_shifts : int;
  cm_escalations : int;
  gc_s : float;
  gc_lost : int;
  minor_words : float;
  major_collections : int;
}

let no_probe =
  {
    dispatches = 0;
    phases = Array.make Obs.Profile.n_phases 0;
    cm_kills = 0;
    cm_phase_shifts = 0;
    cm_escalations = 0;
    gc_s = 0.;
    gc_lost = 0;
    minor_words = 0.;
    major_collections = 0;
  }

let json_int path j =
  let rec go j = function
    | [] -> Obs.Json.to_int j
    | k :: rest -> Option.bind (Obs.Json.member k j) (fun j -> go j rest)
  in
  Option.value (go j path) ~default:0

(* Sum a CM counter over every engine registered with Obs.Metrics. *)
let cm_counter mj key =
  match Option.bind (Obs.Json.member "engines" mj) Obs.Json.to_list with
  | None -> 0
  | Some es -> List.fold_left (fun acc e -> acc + json_int [ "cm"; key ] e) 0 es

(* Run [f] with the simulated-phase profiler, the metrics hooks, a
   dispatch counter and the GC event cursor armed.  [Obs.Metrics.enable]
   installs its own dispatch hook, so ours goes in after it.  None of
   these charge simulated cycles: the schedule is the untraced one. *)
let probed f =
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let dispatches = ref 0 in
  Sim.on_dispatch := (fun _ -> incr dispatches);
  Sim.on_dispatch_enabled := true;
  Pb_host.Gc_time.reset ();
  let g0 = Gc.quick_stat () in
  let disarm () =
    Obs.Metrics.disable ();
    Obs.Profile.disable ()
  in
  let r = Fun.protect ~finally:disarm f in
  let gc_s = Pb_host.Gc_time.read_seconds () in
  let g1 = Gc.quick_stat () in
  let mj = Obs.Metrics.to_json () in
  let phases = (Obs.Profile.snapshot ()).Obs.Profile.cycles in
  Obs.Metrics.reset ();
  Obs.Profile.reset ();
  ( r,
    {
      dispatches = !dispatches;
      phases;
      cm_kills = cm_counter mj "kill";
      cm_phase_shifts = cm_counter mj "phase_shifts";
      cm_escalations = cm_counter mj "escalations";
      gc_s;
      gc_lost = Pb_host.Gc_time.lost_events ();
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let run_probed ~traced f =
  if traced then probed f else (f (), no_probe)

(* --- shared helpers ----------------------------------------------------- *)

type heap_gauges = { frees : int; reuses : int; leaked : int; double : int }

let heap_gauges () =
  {
    frees = Memory.Heap.frees_total ();
    reuses = Memory.Heap.reuses_total ();
    leaked = Memory.Heap.leaked_frees_total ();
    double = Memory.Heap.double_frees_total ();
  }

let heap_delta a b =
  {
    frees = b.frees - a.frees;
    reuses = b.reuses - a.reuses;
    leaked = b.leaked - a.leaked;
    double = b.double - a.double;
  }

let stats_fingerprint (s : Stm_intf.Stats.snapshot) =
  [
    ("commits", s.s_commits);
    ("aborts_ww", s.s_aborts_ww);
    ("aborts_rw", s.s_aborts_rw);
    ("aborts_killed", s.s_aborts_killed);
    ("waits", s.s_waits);
    ("backoffs", s.s_backoffs);
    ("cycles_wasted", s.s_cycles_wasted);
    ("reads", s.s_reads);
    ("writes", s.s_writes);
    ("max_consecutive_aborts", s.s_max_consecutive_aborts);
  ]

let share part total = if total <= 0 then 0. else float_of_int part /. float_of_int total

(* Per-layer values every workload reports; [elapsed] is the simulated
   makespan summed over the pass's runs, [threads] the simulated cores. *)
let common_layer ~(stats : Stm_intf.Stats.snapshot) ~heap ~used_words
    ~(probe : probe) ~host_s ~elapsed ~threads ~topo =
  let hits, misses =
    Array.fold_left (fun (h, m) (h', m', _) -> (h + h', m + m')) (0, 0) topo
  in
  let accesses = stats.s_reads + stats.s_writes in
  let attempts = stats.s_commits + Stm_intf.Stats.total_aborts stats in
  let phase_total = Array.fold_left ( + ) 0 probe.phases in
  let phase name =
    let rec idx i =
      if i >= Array.length Obs.Profile.phase_names then None
      else if Obs.Profile.phase_names.(i) = name then Some i
      else idx (i + 1)
    in
    match idx 0 with
    | Some i -> share probe.phases.(i) phase_total
    | None -> 0.
  in
  let per_commit n = Pb_stats.ratio n stats.s_commits in
  [
    ("sim.dispatches", float_of_int probe.dispatches);
    ("sim.dispatches_per_access", Pb_stats.ratio probe.dispatches accesses);
    ( "sim.host_ns_per_dispatch",
      if probe.dispatches = 0 then 0.
      else host_s *. 1e9 /. float_of_int probe.dispatches );
  ]
  @ List.map
      (fun p -> ("phase." ^ p ^ "_share", phase p))
      [ "read"; "write"; "validate"; "commit"; "spin"; "backoff"; "idle"; "other" ]
  @ [
      ("topology.hits", float_of_int hits);
      ("topology.misses", float_of_int misses);
      ("topology.miss_ratio", Pb_stats.ratio misses (hits + misses));
      ("topology.misses_per_commit", per_commit misses);
      ("engine.commit_ratio", Pb_stats.ratio stats.s_commits attempts);
      ("engine.aborts_ww", float_of_int stats.s_aborts_ww);
      ("engine.aborts_rw", float_of_int stats.s_aborts_rw);
      ("engine.aborts_killed", float_of_int stats.s_aborts_killed);
      ( "engine.wasted_cycle_share",
        share stats.s_cycles_wasted (elapsed * threads) );
      ("engine.reads_per_commit", per_commit stats.s_reads);
      ("engine.writes_per_commit", per_commit stats.s_writes);
      ("engine.waits_per_commit", per_commit stats.s_waits);
      ( "engine.max_consecutive_aborts",
        float_of_int stats.s_max_consecutive_aborts );
      ( "engine.host_ns_per_tx",
        if stats.s_commits = 0 then 0.
        else host_s *. 1e9 /. float_of_int stats.s_commits );
      ("cm.backoffs", float_of_int stats.s_backoffs);
      ("cm.kills", float_of_int probe.cm_kills);
      ("cm.phase_shifts", float_of_int probe.cm_phase_shifts);
      ("cm.escalations", float_of_int probe.cm_escalations);
      ("heap.used_words", float_of_int used_words);
      ("heap.frees", float_of_int heap.frees);
      ("heap.reuses", float_of_int heap.reuses);
      ("heap.double_frees", float_of_int heap.double);
      ("heap.leaked_frees", float_of_int heap.leaked);
      ( "gc.minor_words_per_access",
        if accesses = 0 then 0. else probe.minor_words /. float_of_int accesses );
      ("gc.major_collections", float_of_int probe.major_collections);
      ("gc.host_share", if host_s <= 0. then 0. else probe.gc_s /. host_s);
    ]

let gc_warning probe =
  if probe.gc_lost = 0 then []
  else
    [
      Printf.sprintf "warning: %d GC events lost; gc.host_share reads low"
        probe.gc_lost;
    ]

let heap_checks heap =
  [
    ("heap.double_frees = 0", heap.double = 0);
    ("heap.leaked_frees = 0", heap.leaked = 0);
  ]

(* Latency samples: one growable int buffer per simulated thread. *)
module Lat = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let merge ts =
    Pb_stats.sorted_copy
      (Array.concat (Array.to_list (Array.map (fun t -> Array.sub t.a 0 t.n) ts)))
end

(* The closed loops report p99 as their tail: a pass's 4,000 to 14,000
   operations put 40 to 140 samples beyond it, where p99.9 would rest on
   a handful. *)
let sb7_tail = 0.99

(* The tail percentile for [n] samples, falling back to the maximum for
   runs too small to have one (the self-test's tiny sizes). *)
let tail_of ~max sorted =
  let n = Array.length sorted in
  match Pb_stats.tail_percentile ~max n with
  | Some q -> (Pb_stats.percentile_label q, Pb_stats.quantile_sorted sorted q)
  | None -> ("max", sorted.(n - 1))

(* --- STMBench7, closed loop --------------------------------------------- *)

type sb7 = {
  spec : Engines.spec;
  mix : Stmbench7.Sb7_bench.workload;
  long_traversals : bool;
      (** off = STMBench7's "no long traversals" option: T1 and T2 leave
          the operation tables *)
  threads : int;
  topology : Topology.t;
  params : Stmbench7.Sb7_params.t;  (** [seed] is replaced by the run's *)
  duration_cycles : int;
}

(* Structure invariants after the run: every composite's part count is
   within capacity, every live part listed in a composite is found under
   its id in the part index, every dead one is absent, and the index holds
   exactly the live parts. *)
let sb7_structure_ok (m : Stmbench7.Sb7_model.t) =
  let open Stmbench7.Sb7_model in
  let rd = Memory.Heap.read m.heap in
  let ops = Stm_intf.Engine.direct_ops m.heap in
  let ok = ref true and live = ref 0 in
  Array.iter
    (fun c ->
      let n = rd (c + cp_nparts) in
      if n < 0 || n > rd (c + cp_cap) then ok := false
      else
        for i = 0 to n - 1 do
          let p = rd (c + cp_part + i) in
          match (rd (p + ap_alive), Txds.Tx_hashmap.find m.part_index ops (rd (p + ap_id))) with
          | 1, Some a when a = p -> incr live
          | 0, None -> ()
          | _ -> ok := false
        done)
    m.composites;
  !ok && Txds.Tx_hashmap.cardinal m.part_index ops = !live

(* STMBench7 operations are drawn from a shuffled deck rather than
   independently: each deck of [deck_size] operations holds the mix's
   operations in exact proportion (largest remainder), in an order the
   seed shuffles, and all threads deal from one deck.  Under independent
   draws the number of long traversals in a run is itself random, and
   because one T1 costs as much as hundreds of short operations, that
   count alone moved throughput by a third between seeds.  The operation
   parameters still come from each thread's own generator, as in
   [Sb7_bench.operation]. *)
type sb7_op =
  | Read of Stmbench7.Sb7_bench.read_op
  | Write of Stmbench7.Sb7_bench.write_op

let deck_size = 1000

let sb7_deck (w : sb7) =
  let open Stmbench7.Sb7_bench in
  let keep op =
    w.long_traversals || (op <> Read Traversal_t1 && op <> Write Traversal_t2)
  in
  let weighted share table wrap =
    let total = Array.fold_left (fun acc (x, _) -> acc +. x) 0. table in
    Array.to_list (Array.map (fun (x, op) -> (share *. x /. total, wrap op)) table)
  in
  let r = read_ratio w.mix in
  let entries =
    List.filter
      (fun (_, op) -> keep op)
      (weighted r read_table (fun op -> Read op)
      @ weighted (1. -. r) write_table (fun op -> Write op))
  in
  let total = List.fold_left (fun acc (x, _) -> acc +. x) 0. entries in
  let exact = List.map (fun (x, op) -> (float_of_int deck_size *. x /. total, op)) entries in
  let counts = List.map (fun (x, op) -> (int_of_float x, x -. Float.of_int (int_of_float x), op)) exact in
  let short = deck_size - List.fold_left (fun acc (n, _, _) -> acc + n) 0 counts in
  let by_remainder =
    List.stable_sort (fun (_, a, _) (_, b, _) -> compare b a) counts
  in
  let counts =
    List.mapi (fun i (n, _, op) -> ((if i < short then n + 1 else n), op)) by_remainder
  in
  Array.concat (List.map (fun (n, op) -> Array.make n op) counts)

type dealer = { cards : sb7_op array; mutable next : int; shuffler : Rng.t }

let deck_stream = 4099

let dealer w ~seed =
  let d =
    { cards = sb7_deck w; next = 0; shuffler = Rng.for_thread ~seed ~tid:deck_stream }
  in
  Rng.shuffle d.shuffler d.cards;
  d

(* No tick between reading and advancing [next], so under the cooperative
   simulator the deal order is a function of the schedule alone. *)
let deal d =
  if d.next = Array.length d.cards then begin
    Rng.shuffle d.shuffler d.cards;
    d.next <- 0
  end;
  let op = d.cards.(d.next) in
  d.next <- d.next + 1;
  op

let sb7_operation dealer model engine ~tid rng =
  let open Stmbench7.Sb7_bench in
  let op = deal dealer in
  let state = Rng.bits rng in
  match op with
  | Read op ->
      Stm_intf.Engine.atomic engine ~tid (fun tx ->
          run_read_op model tx (Rng.create state) op)
  | Write op ->
      Stm_intf.Engine.atomic engine ~tid (fun tx ->
          run_write_op model tx (Rng.create state) op)

let sb7_setup (w : sb7) ~seed =
  let params = { w.params with Stmbench7.Sb7_params.seed } in
  Pb_trace.span "setup" (fun () ->
      let model =
        Pb_trace.span "Sb7_model.build" (fun () ->
            Stmbench7.Sb7_model.build ~params ())
      in
      let engine =
        Pb_trace.span "Engines.make" (fun () ->
            Engines.make w.spec model.Stmbench7.Sb7_model.heap)
      in
      let rngs =
        Pb_trace.span "populate" (fun () ->
            Array.init w.threads (fun tid -> Rng.for_thread ~seed ~tid))
      in
      (model, engine, rngs))

let with_topology (w : sb7) f =
  Topology.set w.topology;
  Fun.protect ~finally:Topology.reset f

let sb7_setup_trial w ~seed = with_topology w (fun () -> ignore (sb7_setup w ~seed))

let sb7_pass (w : sb7) ~seed ~traced =
  with_topology w @@ fun () ->
  let g0 = heap_gauges () in
  let (model, engine, rngs), setup_s = Pb_host.timed (fun () -> sb7_setup w ~seed) in
  Stm_intf.Engine.reset_stats engine;
  Topology.reset_counters ();
  let lat = Array.init w.threads (fun _ -> Lat.create ()) in
  let dealer = dealer w ~seed in
  (* Operations finished inside the measured window.  Throughput counts
     these over the window, not all operations over the makespan: a long
     traversal still in flight at the deadline would otherwise stretch the
     divisor by up to a traversal's length. *)
  let in_window = Array.make w.threads 0 in
  let body tid =
    let rng = rngs.(tid) and buf = lat.(tid) in
    while Exec.now () < w.duration_cycles do
      let t0 = Exec.now () in
      sb7_operation dealer model engine ~tid rng;
      let t1 = Exec.now () in
      if t1 <= w.duration_cycles then in_window.(tid) <- in_window.(tid) + 1;
      Lat.push buf (t1 - t0);
      Pb_trace.sim_span ~tid ~start:t0 ~finish:t1
    done
  in
  let (elapsed, probe), host_s =
    Pb_host.timed (fun () ->
        Pb_trace.span "run" (fun () ->
            run_probed ~traced (fun () -> Sim.run_threads ~threads:w.threads body)))
  in
  let stats = Stm_intf.Engine.stats engine in
  let topo = Topology.socket_counters () in
  let structure_ok, heap =
    Pb_trace.span "verify" (fun () ->
        let ok = sb7_structure_ok model in
        (ok, heap_delta g0 (heap_gauges ())))
  in
  let sorted = Lat.merge lat in
  let ops = Array.length sorted in
  let tail, p_tail = tail_of ~max:sb7_tail sorted in
  let p50 = Pb_stats.quantile_sorted sorted 0.5 in
  let window_ops = Array.fold_left ( + ) 0 in_window in
  let accesses = stats.s_reads + stats.s_writes in
  {
    setup_s;
    host_s;
    attempted = ops;
    failed = 0;
    checks =
      [
        ("sb7 structure and part index consistent", structure_ok);
        ("every operation committed once", stats.s_commits = ops);
      ]
      @ heap_checks heap;
    accesses;
    sim =
      [
        ( "sim_ktx_per_s",
          float_of_int window_ops /. Costs.seconds_of_cycles w.duration_cycles
          /. 1e3 );
        ("sim_p50_cycles", float_of_int p50);
        ("sim_tail_cycles", float_of_int p_tail);
        ( "sim_capacity_per_mcycle",
          1e6 *. float_of_int window_ops /. float_of_int w.duration_cycles );
      ];
    samples = ops;
    tail;
    fingerprint =
      [
        ("elapsed_cycles", elapsed);
        ("ops", ops);
        ("window_ops", window_ops);
        ("p50", p50);
        ("tail", p_tail);
      ]
      @ stats_fingerprint stats
      @ List.concat
          (List.mapi
             (fun i (h, m, s) ->
               [
                 (Printf.sprintf "socket%d.hits" i, h);
                 (Printf.sprintf "socket%d.misses" i, m);
                 (Printf.sprintf "socket%d.steals" i, s);
               ])
             (Array.to_list topo));
    layer =
      common_layer ~stats ~heap
        ~used_words:(Memory.Heap.used model.Stmbench7.Sb7_model.heap)
        ~probe ~host_s ~elapsed ~threads:w.threads ~topo
      @ [
          ("slo.queue_share", 0.);
          ("slo.abort_share", 0.);
          ("slo.backoff_share", 0.);
          ("slo.exec_share", 0.);
          ("slo.retries_per_request", 0.);
          ("service.backlog_end", 0.);
        ];
    notes = gc_warning probe;
  }

(* --- Open-loop service --------------------------------------------------- *)

type service = {
  base : Harness.Service.config;
  rates : float list;  (** Poisson ladder, requests per Mcycle, ascending *)
  reference_rate : float;  (** the rung whose latency is reported *)
  requests : int;  (** expected requests per rung *)
  slo_cycles : int;  (** limit on the tail percentile *)
  backlog_limit : float;  (** share of offered still queued at the end *)
}

type rung = {
  rate : float;
  offered : int;
  completed : int;
  elapsed : int;
  stats : Stm_intf.Stats.snapshot;
  summary : Obs.Slo.summary option;
  backlog_end : int;  (** arrived but not completed when arrivals stop *)
}

let rung_config (w : service) ~seed rate =
  let duration = int_of_float (float_of_int w.requests *. 1e6 /. rate) in
  let wc = w.base.Harness.Service.window_cycles in
  let duration = (duration + wc - 1) / wc * wc in
  {
    w.base with
    Harness.Service.arrivals = Harness.Arrival.Poisson { per_mcycle = rate };
    duration_cycles = duration;
    seed;
  }

(* Arrival streams regenerated with the service's own stream id, so the
   benchmark knows how many requests each rung must complete. *)
let service_arrival_stream = 1009

let backlog_at_end (c : Harness.Service.config) offered windows =
  let done_by_end =
    List.fold_left
      (fun acc (win : Obs.Slo.window) ->
        if win.w_start + c.window_cycles <= c.duration_cycles then
          acc + win.w_completions
        else acc)
      0 windows
  in
  offered - done_by_end

let slo_ok (w : service) r =
  match r.summary with
  | None -> false
  | Some s ->
      s.s_p999 <= w.slo_cycles
      && float_of_int r.backlog_end <= w.backlog_limit *. float_of_int r.offered

(* The rate at which the ladder first misses the SLO: the last rung
   before the first miss, interpolated on log(p99.9) toward the missing
   rung, so the figure moves smoothly instead of jumping a whole rung.  A
   rung missing on backlog alone stops the search at the rung below. *)
let capacity (w : service) rungs =
  let rec go prev = function
    | [] -> prev
    | r :: rest when slo_ok w r -> go (Some (r.rate, r)) rest
    | r :: _ -> (
        match (prev, r.summary) with
        | Some (rate0, r0), Some s1 when
            float_of_int r.backlog_end
            <= w.backlog_limit *. float_of_int r.offered ->
            let p0 = match r0.summary with Some s -> s.s_p999 | None -> 0 in
            let l0 = log (float_of_int (max 1 p0))
            and l1 = log (float_of_int (max 1 s1.s_p999))
            and lim = log (float_of_int w.slo_cycles) in
            let f = if l1 <= l0 then 0. else (lim -. l0) /. (l1 -. l0) in
            Some (rate0 +. (Float.min 1. (Float.max 0. f) *. (r.rate -. rate0)), r0)
        | _ -> prev)
  in
  match go None rungs with Some (rate, _) -> rate | None -> 0.

let service_setup (w : service) ~seed =
  Pb_trace.span "setup" (fun () ->
      Pb_trace.span "Arrival.generate" (fun () ->
          List.map
            (fun rate ->
              let c = rung_config w ~seed rate in
              let expected =
                Array.length
                  (Harness.Arrival.generate ~stream:service_arrival_stream ~seed
                     ~until:c.duration_cycles c.arrivals)
              in
              (rate, c, expected))
            w.rates))

let service_pass (w : service) ~seed ~traced =
  let g0 = heap_gauges () in
  let configs, setup_s = Pb_host.timed (fun () -> service_setup w ~seed) in
  (* Untraced passes run with the SLO collector on: it is how the service
     reports latency, and it charges no cycles.  The traced pass turns it
     off and arms the benchmark's collectors instead, because
     [Service.run ~obs:true] re-arms and then resets [Obs.Metrics] itself;
     its simulated results are the same schedule, which the checks
     confirm. *)
  let results, host_s =
    Pb_host.timed (fun () ->
        Pb_trace.span "run" (fun () ->
            List.map
              (fun (rate, c, expected) ->
                let r, probe =
                  run_probed ~traced (fun () ->
                      Pb_trace.span "Service.run" (fun () ->
                          Harness.Service.run ~obs:(not traced) Engines.swisstm c))
                in
                let backlog_end =
                  backlog_at_end c r.Harness.Service.offered r.windows
                in
                ( {
                    rate;
                    offered = r.offered;
                    completed = r.completed;
                    elapsed = r.elapsed_cycles;
                    stats = r.stats;
                    summary = r.summary;
                    backlog_end;
                  },
                  expected,
                  probe ))
              configs))
  in
  let heap = Pb_trace.span "verify" (fun () -> heap_delta g0 (heap_gauges ())) in
  let rungs = List.map (fun (r, _, _) -> r) results in
  let reference =
    match List.find_opt (fun r -> r.rate = w.reference_rate) rungs with
    | Some r -> r
    | None -> invalid_arg "Pb_work: reference rate not on the ladder"
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rungs in
  let stats =
    List.fold_left
      (fun acc r -> Stm_intf.Stats.add acc r.stats)
      (List.hd rungs).stats (List.tl rungs)
  in
  let probe =
    List.fold_left
      (fun acc (_, _, p) ->
        {
          dispatches = acc.dispatches + p.dispatches;
          phases = Array.map2 ( + ) acc.phases p.phases;
          cm_kills = acc.cm_kills + p.cm_kills;
          cm_phase_shifts = acc.cm_phase_shifts + p.cm_phase_shifts;
          cm_escalations = acc.cm_escalations + p.cm_escalations;
          gc_s = acc.gc_s +. p.gc_s;
          gc_lost = acc.gc_lost + p.gc_lost;
          minor_words = acc.minor_words +. p.minor_words;
          major_collections = acc.major_collections + p.major_collections;
        })
      no_probe results
  in
  let offered = sum (fun r -> r.offered) in
  let elapsed = sum (fun r -> r.elapsed) in
  let s_ref = reference.summary in
  let slo f =
    match s_ref with
    | None -> 0.
    | Some s ->
        let tot =
          s.s_queue_cycles + s.s_abort_cycles + s.s_backoff_cycles + s.s_exec_cycles
        in
        share (f s) tot
  in
  let latency =
    match s_ref with
    | None -> []
    | Some s ->
        [
          ("sim_p50_cycles", float_of_int s.s_p50);
          ("sim_tail_cycles", float_of_int s.s_p999);
          ("sim_capacity_per_mcycle", capacity w rungs);
        ]
  in
  let b = w.base in
  {
    setup_s;
    host_s;
    attempted = offered;
    failed = offered - sum (fun r -> r.completed);
    checks =
      List.concat_map
        (fun (r, expected, _) ->
          [
            ( Printf.sprintf "rate %g: completed = offered" r.rate,
              r.completed = r.offered );
            ( Printf.sprintf "rate %g: offered = generated arrivals" r.rate,
              r.offered = expected );
            ( Printf.sprintf "rate %g: one commit per request" r.rate,
              r.stats.s_commits = r.completed );
          ])
        results
      @ heap_checks heap;
    accesses = stats.s_reads + stats.s_writes;
    sim =
      ( "sim_ktx_per_s",
        float_of_int reference.completed
        /. Costs.seconds_of_cycles reference.elapsed
        /. 1e3 )
      :: latency;
    samples = (match s_ref with Some s -> s.s_requests | None -> 0);
    tail =
      (* Obs.Slo reports p50, p95 and p99.9 only. *)
      (match s_ref with
      | Some s when Pb_stats.tail_percentile s.s_requests >= Some 0.999 -> "p99.9"
      | _ -> "p99.9, under 10 samples beyond it");
    fingerprint =
      List.concat_map
        (fun r ->
          let k n = Printf.sprintf "rate%g.%s" r.rate n in
          [ (k "elapsed_cycles", r.elapsed); (k "completed", r.completed) ]
          @ List.map (fun (n, v) -> (k n, v)) (stats_fingerprint r.stats)
          @
          match r.summary with
          | None -> []
          | Some s ->
              [
                (k "p50", s.s_p50);
                (k "p999", s.s_p999);
                (k "backlog_end", r.backlog_end);
              ])
        rungs;
    layer =
      common_layer ~stats ~heap ~used_words:(b.users + b.keys) ~probe ~host_s
        ~elapsed ~threads:b.threads ~topo:[||]
      @ [
          ("slo.queue_share", slo (fun s -> s.s_queue_cycles));
          ("slo.abort_share", slo (fun s -> s.s_abort_cycles));
          ("slo.backoff_share", slo (fun s -> s.s_backoff_cycles));
          ("slo.exec_share", slo (fun s -> s.s_exec_cycles));
          ( "slo.retries_per_request",
            match s_ref with
            | Some s -> Pb_stats.ratio s.s_retries s.s_requests
            | None -> 0. );
          ("service.backlog_end", float_of_int reference.backlog_end);
        ];
    notes =
      gc_warning probe
      @ List.filter_map
        (fun r ->
          Option.map
            (fun (s : Obs.Slo.summary) ->
              Printf.sprintf
                "rung %7.1f req/Mcycle: offered %d completed %d p50 %d p95 %d \
                 p99.9 %d backlog_end %d slo %s"
                r.rate r.offered r.completed s.s_p50 s.s_p95 s.s_p999
                r.backlog_end
                (if slo_ok w r then "met" else "missed"))
            r.summary)
        rungs;
  }
