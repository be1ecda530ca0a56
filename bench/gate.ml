(* The repository's one gate: every perf bar and every frozen simulated
   matrix, as a list of sections.  Each section prints its tables and
   returns its JSON subtree and its named checks; the driver runs the list
   once, in order, writes one JSON file (each section under its key, then
   every check), prints every check, and exits 1 naming each failed one.

   Two clocks:

   - wall-clock sections (host ns/tx, real [Domain]s) gate against
     constants measured on earlier commits, with retry budgets.  The
     swisstm rw / calibration measurement runs first, in a fresh heap, and
     every wall-clock check prints it next to its own figure;
   - simulated sections (sb7, privatization_sim, crossover, service,
     boost, scale) are deterministic functions of their inputs.  In smoke
     mode each one's subtree must equal, as a JSON value, the same subtree
     of bench/gate_frozen.json (embedded at build time).  That file was
     written by another process, so a match is also the cross-process
     bit-identity proof.  Full mode runs the full-size cells, which are
     not frozen, plus the smoke scale columns, which are.  DESIGN.md §17
     says how to refreeze.

     dune exec bench/gate.exe -- --smoke        # quick CI run (make check)
     dune exec bench/gate.exe                   # full matrix
     dune exec bench/gate.exe -- --out f.json   # default gate_out.json *)

let smoke = ref false
let out = ref "gate_out.json"

let () =
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " quick mode: fewer iterations and threads");
      ("--out", Arg.Set_string out, "FILE output path (default gate_out.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gate [--smoke] [--out FILE]"

let smoke = !smoke

type check = { name : string; ok : bool; detail : string }

let check name ok fmt = Printf.ksprintf (fun detail -> { name; ok; detail }) fmt

(* JSON leaves.  Non-finite floats (a missing micro row) print as null. *)
let num f = if Float.is_finite f then Obs.Json.Float f else Obs.Json.Null
let int i = Obs.Json.Int i
let str s = Obs.Json.Str s
let obj kvs = Obs.Json.Obj kvs
let bools l = obj (List.map (fun (n, ok) -> (n, Obs.Json.Bool ok)) l)
let checks_of prefix l = List.map (fun (n, ok) -> check (prefix ^ n) ok "") l
let mode = if smoke then "smoke" else "full"

(* ---------- the frozen baseline ---------- *)

let frozen = lazy (Obs.Json.of_string Gate_frozen_data.contents)

(* [path]'s subtree of the output must equal the frozen file's. *)
let frozen_check path json =
  let where = String.concat "." path in
  let name = where ^ "_frozen" in
  match
    List.fold_left
      (fun j k -> Option.bind j (Obs.Json.member k))
      (Some (Lazy.force frozen)) path
  with
  | None -> check name false "gate_frozen.json has no %s subtree" where
  | Some expected -> (
      match Obs.Json.diff ~path:where expected json with
      | None -> check name true "equal to gate_frozen.json"
      | Some d ->
          check name false "differs from gate_frozen.json at %s (frozen \u{2260} current)" d)

let frozen_checks path json = if smoke then [ frozen_check path json ] else []

(* ---------- wall-clock constants ---------- *)

(* Frozen seed baseline: swisstm rw-8r8w ns/tx with the (int, int) Hashtbl
   write log, measured on the seed commit by bench/main.exe micro. *)
let seed_swisstm_rw_ns = 9912.4
let required_improvement_pct = 20.0

(* PR-2 constant: swisstm rw-8r8w ns/tx at commit 9f367bb on the machine
   of that commit (min over alternated short batches, two process runs).
   Today's build must stay within [pr2_limit_pct] of it.  This is not an
   observability on/off pair: it compares the current build's swisstm rw
   against a constant, so it moves with the host's speed as much as with
   the code (ROADMAP).  Transient load inflates a whole measurement by
   more than the bar, so the gate re-measures up to [rw_max_attempts]
   times (pause between) and gates on the best attempt: a quiet window
   recovers the true floor, while a real regression shifts the floor
   itself and fails every attempt.  A wlog-only calibration loop
   (untouched since it was written) is timed in the same windows as a load
   diagnostic.  In `make check` the gate runs right after the fully
   parallel test suite, so the first few windows routinely land on a
   still-hot machine: eight attempts with a one-second settle keep the
   false-failure rate down without weakening the bar. *)
let pr2_swisstm_rw_ns = 1198.0
let pr2_limit_pct = 2.0
let rw_max_attempts = 8

(* PR-5 constant for the raw-speed bar: swisstm rw-8r8w ns/tx at
   commit 9b03156, measured with the same methodology as the PR-2 one
   (fresh process, min over 30 alternated 5000-iteration batches), so
   the bar reuses that measurement and its retries.  The pooled
   descriptors and allocation-free read set must beat it by
   [pr5_required_improvement_pct]. *)
let pr5_swisstm_rw_ns = 1210.0
let pr5_required_improvement_pct = 10.0

(* Privatization: with the epoch reclaimer standing in for the §6
   quiescence barrier, the read-mix privatization penalty may be at most
   15 % vs plain (privatization-UNSAFE) swisstm; quiescence measured −34 %
   on this mix (EXPERIMENTS.md).  Gated deterministically on the
   simulated sb7 read mix at 8 threads; the native-domain run corroborates
   it and gates only its liveness invariants. *)
let epoch_penalty_floor_pct = -15.0
let priv_min_rounds = 3
let priv_max_attempts = 6

let now = Unix.gettimeofday

(* Best-of-[batches] ns/iteration of [f] run [iters] times. *)
let time_ns ~batches ~iters f =
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = now () in
    for _ = 1 to iters do
      f ()
    done;
    let per = (now () -. t0) *. 1e9 /. float_of_int iters in
    if per < !best then best := per
  done;
  !best

(* The 8-write / 8-read-after-write / 8-miss wlog access pattern, used
   both as the fast-path benchmark and as the calibration loop (the wlog
   is untouched since it was written, so its speed tracks the machine). *)
let make_wlog_tx () =
  let open Stm_intf in
  let wl = Wlog.create () in
  let acc = ref 0 in
  fun () ->
    for i = 0 to 7 do
      Wlog.replace wl (1 + (i * 8)) i
    done;
    for i = 0 to 7 do
      let s = Wlog.probe wl (1 + (i * 8)) in
      acc := !acc + Wlog.slot_value wl s
    done;
    for i = 0 to 7 do
      (* the read-before-write misses an update transaction also issues *)
      if Wlog.probe wl (1000 + i) >= 0 then incr acc
    done;
    Wlog.clear wl

let micro_tx engine base shape =
  let open Stm_intf in
  match shape with
  | "ro" ->
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 7 do
            ignore (tx.Engine.read (base + i) : int)
          done)
  | "rw" ->
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 7 do
            ignore (tx.Engine.read (base + i) : int)
          done;
          for i = 0 to 7 do
            tx.Engine.write (base + i) i
          done)
  | "wo" ->
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 7 do
            tx.Engine.write (base + i) i
          done)
  | "raw" ->
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 7 do
            tx.Engine.write (base + i) i
          done;
          for i = 0 to 7 do
            ignore (tx.Engine.read (base + i) : int)
          done;
          ignore (tx.Engine.read (base + 128) : int))
  | "raw-16r2w" ->
      (* Read-heavy mix: 2 writes then 16 reads, 2 of which hit
         the write log — the shape the allocation-free read set and the
         epoch work target. *)
      Engine.atomic engine ~tid:0 (fun tx ->
          for i = 0 to 1 do
            tx.Engine.write (base + i) i
          done;
          for i = 0 to 15 do
            ignore (tx.Engine.read (base + i) : int)
          done)
  | _ -> assert false

(* ---------- swisstm rw / cal (first, in a fresh heap) ---------- *)

(* The 2 % bar is tighter than the GC noise later sections leave behind,
   and the PR-2 constant was taken under the same fresh-process
   conditions.  Many short alternated batches: load bursts shorter than a
   round hit both loops, and both mins come from quiet windows. *)
let measure_rw_cal () =
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let base = Memory.Heap.alloc heap 256 in
  let engine = Engines.make Engines.swisstm heap in
  let rw () = micro_tx engine base "rw" in
  let cal = make_wlog_tx () in
  for _ = 1 to 2000 do
    rw ();
    cal ()
  done;
  fun () ->
    let best_rw = ref infinity and best_cal = ref infinity in
    for _ = 1 to 30 do
      let one f best =
        let t0 = now () in
        for _ = 1 to 5_000 do
          f ()
        done;
        let per = (now () -. t0) *. 1e9 /. 5_000. in
        if per < !best then best := per
      in
      one rw best_rw;
      one cal best_cal
    done;
    (!best_rw, !best_cal)

let pr2_over_pct rw = (rw -. pr2_swisstm_rw_ns) /. pr2_swisstm_rw_ns *. 100.
let pr5_gain_pct rw = (pr5_swisstm_rw_ns -. rw) /. pr5_swisstm_rw_ns *. 100.

(* (rw ns, cal ns, attempts): re-measured while either bar that reads it
   would fail, keeping each loop's best. *)
let rw_cal =
  lazy
    (let measure = measure_rw_cal () in
     let rec go attempt (rw, cal) =
       if
         (pr2_over_pct rw <= pr2_limit_pct
         && pr5_gain_pct rw >= pr5_required_improvement_pct)
         || attempt >= rw_max_attempts
       then (rw, cal, attempt)
       else begin
         Printf.printf
           "  attempt %d/%d: rw %.1f ns (cal %.1f ns) over a bar, re-measuring \
            after a pause...\n%!"
           attempt rw_max_attempts rw cal;
         Unix.sleepf 1.0;
         let rw', cal' = measure () in
         go (attempt + 1) (Float.min rw rw', Float.min cal cal')
       end
     in
     go 1 (measure ()))

(* A wall-clock check, with the host calibration printed next to it. *)
let wall name ok fmt =
  Printf.ksprintf
    (fun d ->
      let rw, cal, n = Lazy.force rw_cal in
      check name ok "%s [rw %.1f ns, cal %.1f ns, %d attempt%s]" d rw cal n
        (if n = 1 then "" else "s"))
    fmt

let swisstm_rw () =
  let rw, cal, attempts = Lazy.force rw_cal in
  let over = pr2_over_pct rw and gain = pr5_gain_pct rw in
  ( obj
      [
        ("rw_ns_per_tx", num rw);
        ("cal_ns_per_tx", num cal);
        ("rw_over_cal", num (rw /. cal));
        ("attempts", int attempts);
        ( "rw_vs_pr2_constant",
          obj [ ("constant_ns_per_tx", num pr2_swisstm_rw_ns);
                ("over_pct", num over); ("limit_pct", num pr2_limit_pct) ] );
        ( "rw_vs_pr5_constant",
          obj [ ("constant_ns_per_tx", num pr5_swisstm_rw_ns);
                ("improvement_pct", num gain);
                ("required_pct", num pr5_required_improvement_pct) ] );
      ],
    [
      wall "rw_vs_pr2_constant" (over <= pr2_limit_pct)
        "swisstm rw %+.1f%% vs the PR-2 constant %.1f ns (limit %+.0f%%)" over
        pr2_swisstm_rw_ns pr2_limit_pct;
      wall "rw_vs_pr5_constant" (gain >= pr5_required_improvement_pct)
        "swisstm rw %.1f%% under the PR-5 constant %.1f ns (need >= %.0f%%)"
        gain pr5_swisstm_rw_ns pr5_required_improvement_pct;
    ] )

(* ---------- wlog vs hashtbl fast path ---------- *)

let wlog_fastpath () =
  let iters = if smoke then 20_000 else 200_000 in
  let wlog_tx = make_wlog_tx () in
  let acc = ref 0 in
  let ht : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let ht_tx () =
    for i = 0 to 7 do
      Hashtbl.replace ht (1 + (i * 8)) i
    done;
    for i = 0 to 7 do
      match Hashtbl.find_opt ht (1 + (i * 8)) with
      | Some v -> acc := !acc + v
      | None -> ()
    done;
    for i = 0 to 7 do
      if Hashtbl.find_opt ht (1000 + i) <> None then incr acc
    done;
    Hashtbl.reset ht
  in
  for _ = 1 to 1000 do
    wlog_tx ();
    ht_tx ()
  done;
  (* Alternated batches: a load burst hits both representations instead
     of skewing whichever happened to be in flight. *)
  let wl = ref infinity and ht = ref infinity in
  for _ = 1 to 3 do
    wl := Float.min !wl (time_ns ~batches:1 ~iters wlog_tx);
    ht := Float.min !ht (time_ns ~batches:1 ~iters ht_tx)
  done;
  let wl = !wl and ht = !ht in
  let imp = (ht -. wl) /. ht *. 100.0 in
  ( obj [ ("wlog_ns_per_tx", num wl); ("hashtbl_ns_per_tx", num ht);
          ("improvement_pct", num imp) ],
    [
      wall "wlog_fastpath" (imp >= required_improvement_pct)
        "wlog %.1f ns/tx vs hashtbl %.1f ns/tx: %.1f%% better (need >= %.0f%%)"
        wl ht imp required_improvement_pct;
    ] )

(* ---------- engine micro ---------- *)

let micro () =
  let iters = if smoke then 2_000 else 20_000 in
  let rows =
    List.map
      (fun (name, spec) ->
        let heap = Memory.Heap.create ~words:(1 lsl 16) in
        let base = Memory.Heap.alloc heap 256 in
        let engine = Engines.make spec heap in
        ( name,
          List.map
            (fun shape ->
              for _ = 1 to 500 do
                micro_tx engine base shape
              done;
              (shape, time_ns ~batches:3 ~iters (fun () -> micro_tx engine base shape)))
            [ "ro"; "rw"; "wo"; "raw"; "raw-16r2w" ] ))
      [
        ("swisstm", Engines.swisstm);
        ("tl2", Engines.tl2);
        ("tinystm", Engines.tinystm);
        ("rstm", Engines.rstm);
        ("glock", Engines.Glock);
      ]
  in
  List.iter
    (fun (name, shapes) ->
      Printf.printf "  %-10s" name;
      List.iter (fun (s, ns) -> Printf.printf " %s=%.1fns" s ns) shapes;
      print_newline ())
    rows;
  let rw = List.assoc "rw" (List.assoc "swisstm" rows) in
  let imp = (seed_swisstm_rw_ns -. rw) /. seed_swisstm_rw_ns *. 100. in
  let shapes l = obj (List.map (fun (s, ns) -> (s, num ns)) l) in
  ( obj
      [
        ("ns_per_tx", obj (List.map (fun (n, l) -> (n, shapes l)) rows));
        ( "swisstm_rw_vs_seed",
          obj [ ("seed_hashtbl_ns_per_tx", num seed_swisstm_rw_ns);
                ("current_ns_per_tx", num rw); ("improvement_pct", num imp) ] );
      ],
    [
      wall "rw_vs_seed" (imp >= required_improvement_pct)
        "micro swisstm rw %.1f ns: %.1f%% better than the seed's %.1f ns (need \
         >= %.0f%%)"
        rw imp seed_swisstm_rw_ns required_improvement_pct;
    ] )

(* ---------- sb7 matrix (simulated) ---------- *)

let sb7 () =
  let threads = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let duration_cycles = if smoke then 200_000 else 2_000_000 in
  let rows =
    List.concat_map
      (fun (wname, workload) ->
        List.concat_map
          (fun (ename, spec) ->
            List.map
              (fun t ->
                let r =
                  Stmbench7.Sb7_bench.run ~spec ~workload ~threads:t
                    ~duration_cycles ()
                in
                obj
                  [ ("workload", str wname); ("engine", str ename);
                    ("threads", int t); ("ktps", num (Bench_common.ktps r));
                    ("elapsed_cycles", int r.Harness.Workload.elapsed_cycles);
                    ("abort_rate", num (Harness.Workload.abort_rate r)) ])
              threads)
          [
            ("swisstm", Bench_common.swisstm);
            ("tinystm", Bench_common.tinystm);
            ("rstm", Bench_common.rstm_serializer);
            ("tl2", Bench_common.tl2);
          ])
      [
        ("read_dominated", Stmbench7.Sb7_bench.Read_dominated);
        ("read_write", Stmbench7.Sb7_bench.Read_write);
        ("write_dominated", Stmbench7.Sb7_bench.Write_dominated);
      ]
  in
  let json = Obs.Json.List rows in
  (json, frozen_checks [ "sb7" ] json)

(* ---------- privatization (simulated) ---------- *)

(* The sb7 read mix at 8 simulated threads: plain swisstm, the §6
   quiescence barrier, and plain swisstm with the epoch reclaimer armed
   (every transaction boundary announces a quiescent state; [Heap.free]
   defers freed blocks to limbo until a grace period passes).
   Announcements charge no simulated cycles, so the +epochs column tracks
   plain swisstm unless arming starts charging; the advance count is
   checked so the column can tell an engine that stopped announcing from
   one that announces. *)
let privatization_sim () =
  let threads = 8 in
  let duration_cycles = if smoke then 400_000 else 2_000_000 in
  let run spec =
    Bench_common.ktps
      (Stmbench7.Sb7_bench.run ~spec
         ~workload:Stmbench7.Sb7_bench.Read_dominated ~threads ~duration_cycles
         ())
  in
  let plain = run Engines.swisstm in
  let quiesce = run Engines.swisstm_priv_safe in
  let advances0 = Memory.Epoch.advances () in
  let deferred0 = Memory.Epoch.deferred () in
  Memory.Epoch.arm ();
  let epoch = run Engines.swisstm in
  let advances = Memory.Epoch.advances () - advances0 in
  let deferred = Memory.Epoch.deferred () - deferred0 in
  (* the simulated threads announced themselves online; take them off so
     they cannot stall the grace periods of later native runs *)
  for tid = 0 to threads - 1 do
    Memory.Epoch.offline ~tid
  done;
  Memory.Epoch.disarm ();
  let penalty v = (v -. plain) /. plain *. 100. in
  Printf.printf
    "  plain %.1f ktps, +quiescence %.1f ktps (%+.1f%%), +epochs %.1f ktps \
     (%+.1f%%; %d epoch advances, %d frees deferred)\n%!"
    plain quiesce (penalty quiesce) epoch (penalty epoch) advances deferred;
  let json =
    obj
      [ ("workload", str "sb7 read_dominated"); ("threads", int threads);
        ("plain_ktps", num plain); ("quiescence_ktps", num quiesce);
        ("epoch_ktps", num epoch);
        ("quiescence_penalty_pct", num (penalty quiesce));
        ("epoch_penalty_pct", num (penalty epoch));
        ("epoch_penalty_floor_pct", num epoch_penalty_floor_pct);
        ("epoch_advances", int advances); ("epoch_deferred", int deferred) ]
  in
  ( json,
    [
      check "sim_epoch_penalty"
        (penalty epoch >= epoch_penalty_floor_pct)
        "+epochs %+.1f%% on the simulated sb7 read mix (floor %.0f%%; \
         quiescence %+.1f%%)"
        (penalty epoch) epoch_penalty_floor_pct (penalty quiesce);
      check "sim_epoch_advances" (advances > 0)
        "%d epoch advances under the armed reclaimer (need > 0)" advances;
    ]
    @ frozen_checks [ "privatization_sim" ] json )

(* ---------- privatization (native domains) ---------- *)

(* Wall-clock, real [Domain]s: each of 4 domains runs a read-mix loop
   over its own 16-word block (16 reads + 2 writes per transaction) and
   every 16th transaction privatizes the block — swaps a fresh block into
   its handle inside a transaction, then frees the old block outside it.
   Domains never share blocks, so the cost measured is purely the safety
   mechanism: plain swisstm commits immediately (privatization-UNSAFE —
   acceptable here because no domain ever reads another's block),
   +quiescence pays the §6 commit-time barrier, and +epochs pays one
   announcement per boundary while [Heap.free] defers the block to the
   limbo list.  Returns transactions per second. *)
let native_priv_tps ~spec ~epochs ~txs =
  let n_domains = 4 in
  let block_words = 16 in
  let heap = Memory.Heap.create ~words:(1 lsl 16) in
  let handles = Memory.Heap.alloc heap n_domains in
  for d = 0 to n_domains - 1 do
    Memory.Heap.write heap (handles + d) (Memory.Heap.alloc heap block_words)
  done;
  (* Small lock table: the workload touches a few dozen stripes, and the
     default 2^18-entry table's allocation leaves GC debt that the timed
     region would pay unevenly across variants. *)
  let engine = Engines.make (Engines.with_table_bits 12 spec) heap in
  if epochs then Memory.Epoch.arm ();
  let t0 = now () in
  let doms =
    Array.init n_domains (fun tid ->
        Domain.spawn (fun () ->
            Runtime.Exec.set_native_tid tid;
            if epochs then Memory.Epoch.online ~tid;
            let open Stm_intf in
            for it = 1 to txs do
              if it land 15 = 0 then begin
                (* Privatize: publish a fresh block, free the old one. *)
                let fresh = Memory.Heap.alloc heap block_words in
                let old =
                  Engine.atomic engine ~tid (fun tx ->
                      let o = tx.Engine.read (handles + tid) in
                      tx.Engine.write (handles + tid) fresh;
                      o)
                in
                Memory.Heap.free heap old block_words
              end
              else
                Engine.atomic engine ~tid (fun tx ->
                    let b = tx.Engine.read (handles + tid) in
                    let acc = ref 0 in
                    for i = 0 to block_words - 1 do
                      acc := !acc + tx.Engine.read (b + i)
                    done;
                    tx.Engine.write b !acc;
                    tx.Engine.write (b + 1) it)
            done;
            if epochs then Memory.Epoch.offline ~tid))
  in
  Array.iter Domain.join doms;
  let dt = now () -. t0 in
  if epochs then Memory.Epoch.disarm ();
  float_of_int (n_domains * txs) /. dt

let privatization_native () =
  let txs = if smoke then 2_000 else 6_000 in
  let adv0 = Memory.Epoch.advances () in
  let def0 = Memory.Epoch.deferred () in
  let rec0 = Memory.Epoch.reclaimed () in
  (* Throwaway run first: domain spawn and GC warm-up dominate a short
     first native run and would skew whichever variant went first. *)
  ignore
    (native_priv_tps ~spec:Engines.swisstm ~epochs:false ~txs:(txs / 4) : float);
  (* One alternated round measures each variant once.  Warm-up and load
     drift are monotone across a round, so comparing within a round and
     keeping each variant's best across several rounds is what makes the
     penalty numbers mean anything (sequential best-of runs showed the
     *later* variant consistently 30–40 % faster, whichever it was). *)
  let one () =
    ( native_priv_tps ~spec:Engines.swisstm ~epochs:false ~txs,
      native_priv_tps ~spec:Engines.swisstm_priv_safe ~epochs:false ~txs,
      native_priv_tps ~spec:Engines.swisstm ~epochs:true ~txs )
  in
  let penalty v base = (v -. base) /. base *. 100. in
  (* Always at least [priv_min_rounds] rounds; keep going (up to
     [priv_max_attempts]) only while the penalty is under the floor — a
     load burst that hits one variant's window would otherwise fake one. *)
  let rec go attempt ((base, quiesce, epoch) as acc) =
    let ok = penalty epoch base >= epoch_penalty_floor_pct in
    if attempt >= priv_min_rounds && (ok || attempt >= priv_max_attempts) then
      (acc, attempt)
    else begin
      if not ok then
        Printf.printf
          "  round %d/%d: epoch penalty %.1f%% under the floor, re-measuring...\n%!"
          attempt priv_max_attempts (penalty epoch base);
      let b, q, e = one () in
      go (attempt + 1) (Float.max base b, Float.max quiesce q, Float.max epoch e)
    end
  in
  let (base, quiesce, epoch), attempts = go 1 (one ()) in
  let advances = Memory.Epoch.advances () - adv0 in
  let deferred = Memory.Epoch.deferred () - def0 in
  let reclaimed = Memory.Epoch.reclaimed () - rec0 in
  Printf.printf
    "  plain %.0f tx/s, +quiescence %.0f tx/s (%+.1f%%), +epochs %.0f tx/s \
     (%+.1f%%), %d round%s\n%!"
    base quiesce (penalty quiesce base) epoch (penalty epoch base) attempts
    (if attempts = 1 then "" else "s");
  (* Liveness invariants (the wall-clock percentage stays informational:
     scheduler noise on a small machine makes it an unreliable bar):
     grace periods advanced, blocks were deferred, and [disarm] handed
     every limbo block back to the free lists. *)
  ( obj
      [ ("domains", int 4); ("txs_per_domain", int txs);
        ("plain_tps", num base); ("quiescence_tps", num quiesce);
        ("epoch_tps", num epoch);
        ("quiescence_penalty_pct", num (penalty quiesce base));
        ("epoch_penalty_pct", num (penalty epoch base));
        ("epoch_advances", int advances); ("epoch_deferred", int deferred);
        ("epoch_reclaimed", int reclaimed); ("measure_rounds", int attempts) ],
    [
      wall "native_epoch_liveness"
        (advances > 0 && deferred > 0 && deferred = reclaimed)
        "native reclaimer: %d advances, %d deferred, %d reclaimed (need \
         advances > 0, deferred > 0, deferred = reclaimed)"
        advances deferred reclaimed;
    ] )

(* ---------- NOrec-vs-TL2 crossover (simulated) ---------- *)

(* [Crossover.duration_cycles] scales with SWISSTM_BENCH_SCALE, like every
   `bench` run; the frozen ktps assume it unset. *)

let crossover () =
  let rows =
    Crossover.matrix ~duration_cycles:(Crossover.duration_cycles ~smoke) ()
  in
  Crossover.print_rows rows;
  let shape = Crossover.shape_checks rows in
  let ktps (r : Crossover.row) = Obs.Json.List (List.map num (Array.to_list r.ktps)) in
  let json =
    obj
      [ ("thread_counts", Obs.Json.List (List.map int Crossover.thread_counts));
        ("ktps", obj (List.map (fun (r : Crossover.row) -> (r.engine, ktps r)) rows));
        ("shape", bools shape) ]
  in
  (json, checks_of "crossover_" shape @ frozen_checks [ "crossover" ] json)

(* ---------- open-system service SLO (simulated) ---------- *)

let service () =
  let cks, json = Service_bench.gate ~smoke () in
  (json, checks_of "service_" cks @ frozen_checks [ "service" ] json)

(* ---------- boosted vs word collections (simulated) ---------- *)

let boost () =
  let rows =
    Boost_bench.matrix ~ops_per_thread:(if smoke then 500 else 2_000) ()
  in
  Boost_bench.print_rows rows;
  let shape = Boost_bench.shape_checks rows in
  let row (r : Boost_bench.row) =
    obj
      [ ("structure", str r.structure); ("mode", str r.mode);
        ("threads", int r.threads); ("ops", int r.total_ops);
        ("makespan_cycles", int r.makespan); ("ktps", num (Boost_bench.ktps r)) ]
  in
  let json =
    obj [ ("rows", Obs.Json.List (List.map row rows)); ("shape", bools shape) ]
  in
  (json, checks_of "boost_" shape @ frozen_checks [ "boost" ] json)

(* ---------- NUMA scale (simulated) ---------- *)

(* Smoke runs the whole smoke scale sweep (sb7 columns, granularity,
   work stealing, the RSTM refusal) and freezes all of it.  Full mode runs
   only the smoke sb7 columns — full-scale numbers live in `bench scale` —
   and still compares them with the frozen ones. *)
let scale () =
  if smoke then
    let _, rep, json = Scale.gate ~smoke:true () in
    (json, checks_of "scale_" rep.Scale.checks @ [ frozen_check [ "scale" ] json ])
  else
    let rows = Obs.Json.List (List.map Scale.row_json (Scale.matrix ~smoke:true ())) in
    (obj [ ("sb7", rows) ], [ frozen_check [ "scale"; "sb7" ] rows ])

(* Descriptor-pool / heap free-list / epoch counters accumulated over the
   whole run; informational. *)
let gauges () =
  (obj (List.map (fun (n, v) -> (n, int v)) (Obs.Metrics.gauge_values ())), [])

(* ---------- driver ---------- *)

let sections =
  [
    ("swisstm_rw", swisstm_rw);
    ("wlog_fastpath", wlog_fastpath);
    ("micro", micro);
    ("sb7", sb7);
    ("privatization_sim", privatization_sim);
    ("privatization_native", privatization_native);
    ("crossover", crossover);
    ("service", service);
    ("boost", boost);
    ("scale", scale);
    ("gauges", gauges);
  ]

let () =
  let results =
    List.map
      (fun (key, run) ->
        Printf.printf "gate: %s (%s)...\n%!" key mode;
        let json, checks = run () in
        List.iter
          (fun c ->
            Printf.printf "  %-4s %-32s %s\n%!"
              (if c.ok then "ok" else "FAIL")
              c.name c.detail)
          checks;
        (key, json, checks))
      sections
  in
  let checks = List.concat_map (fun (_, _, c) -> c) results in
  let check_json c =
    obj [ ("name", str c.name); ("ok", Obs.Json.Bool c.ok); ("detail", str c.detail) ]
  in
  let json =
    obj
      ([ ("schema", str "swisstm-repro/gate/1"); ("mode", str mode) ]
      @ List.map (fun (k, j, _) -> (k, j)) results
      @ [ ("checks", Obs.Json.List (List.map check_json checks)) ])
  in
  let oc = open_out !out in
  Obs.Json.to_channel oc json;
  close_out oc;
  Printf.printf "gate: wrote %s\n%!" !out;
  match List.filter (fun c -> not c.ok) checks with
  | [] -> Printf.printf "gate: OK (%d checks)\n%!" (List.length checks)
  | failed ->
      List.iter (fun c -> Printf.eprintf "gate: FAIL %s: %s\n" c.name c.detail) failed;
      Printf.eprintf "gate: %d of %d checks failed: %s\n%!" (List.length failed)
        (List.length checks)
        (String.concat ", " (List.map (fun c -> c.name) failed));
      exit 1
