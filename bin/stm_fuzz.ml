(* Schedule-exploration fuzzer: run random transactional programs on the
   engines under perturbed deterministic schedules, record each history,
   and check it for opacity.  Failures are shrunk and printed as
   replayable (engine, policy, program) triples; --corpus re-runs a stored
   triple, --self-check proves the checker catches a deliberately broken
   engine (swisstm with validation disabled). *)

let engine_arg = ref "all"
let policy_arg = ref "pct"
let seeds = ref 8
let progs = ref 10
let threads = ref 3
let cells = ref 8
let corpus = ref []
let self_check = ref false
let verbose = ref false
let inject = ref false
let inject_seed = ref 7
let epochs = ref false
let txds = ref false

let speclist =
  [
    ("--engine", Arg.Set_string engine_arg,
     "NAME  engine to fuzz, or 'all' (default all)");
    ("--policy", Arg.Set_string policy_arg,
     "P  scheduler family: earliest | random | pct (default pct)");
    ("--seeds", Arg.Set_int seeds,
     "N  scheduler seeds per program (default 8)");
    ("--progs", Arg.Set_int progs,
     "N  generated programs per engine (default 10)");
    ("--threads", Arg.Set_int threads, "N  threads per program (default 3)");
    ("--cells", Arg.Set_int cells, "N  shared cells per program (default 8)");
    ("--corpus", Arg.String (fun f -> corpus := f :: !corpus),
     "FILE  replay a stored (engine, policy, program) triple; repeatable");
    ("--self-check", Arg.Set self_check,
     "  fuzz the broken swisstm variant and require the checker to catch it");
    ("--inject", Arg.Set inject,
     "  arm the abort-storm fault injector: every run also faces spurious \
      aborts, holder stalls and stretched commits, and must stay opaque");
    ("--inject-seed", Arg.Set_int inject_seed,
     "N  fault-stream seed for --inject (default 7)");
    ("--epochs", Arg.Set epochs,
     "  arm the epoch reclaimer and the heap free-guard for every run \
      (engines announce at transaction boundaries; frees defer through \
      limbo)");
    ("--txds", Arg.Set txds,
     "  fuzz the boosted collections instead of word programs: structure x \
      mode matrix (map/pqueue/queue, boosted/word) checked for strict \
      serializability against pure models");
    ("-v", Arg.Set verbose, "  verbose (report undecided runs)");
  ]

let usage = "stm_fuzz [options]   (see also: make fuzz-smoke)"

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let make_policy_of_family = function
  | "earliest" -> (fun (_ : int) -> Runtime.Sim.Earliest_first)
  | "random" -> Check.Fuzz.fuzz_random_policy
  | "pct" -> Check.Fuzz.fuzz_pct_policy
  | p -> die "unknown policy family %S (want earliest|random|pct)" p

let fuzz_engine ?stop_after ~name spec =
  let seeds = if !policy_arg = "earliest" then 1 else !seeds in
  let st =
    Check.Fuzz.fuzz ~spec ~name ~cells:!cells
      ~make_policy:(make_policy_of_family !policy_arg)
      ~seeds ~progs:!progs ~threads:!threads ~verbose:!verbose ?stop_after ()
  in
  let level =
    match Engines.contract spec with
    | Engines.Opaque -> "opacity"
    | Engines.Serializable -> "serializability"
  in
  Printf.printf "%-16s %4d runs, %d undecided, %d violation(s)  [%s]\n%!"
    name st.runs st.undecided
    (List.length st.failures)
    level;
  List.iter (Check.Fuzz.pp_failure stdout) st.failures;
  st

let () =
  Arg.parse speclist (fun a -> die "stray argument %S" a) usage;
  (* Injected faults are ordinary aborts/stalls from the engines' point of
     view, so every history must still pass the checker; the storm only
     drives the runs into rarer schedules (kill paths, long retry chains,
     escalation). *)
  if !inject then
    Runtime.Inject.arm ~seed:!inject_seed Runtime.Inject.abort_storm;
  (* Epoch announcements are plain atomics (no simulated cycles), so arming
     must not change any history; the runs merely exercise the reclaimer
     and the double-free guard underneath the checker. *)
  if !epochs then begin
    Memory.Heap.guard_on := true;
    Memory.Epoch.arm ()
  end;
  if !corpus <> [] then begin
    let bad = ref 0 in
    List.iter
      (fun file ->
        match Check.Fuzz.load_corpus file with
        | Error m ->
            incr bad;
            Printf.printf "%-40s PARSE ERROR: %s\n%!" file m
        | Ok entry -> (
            match Check.Fuzz.replay entry with
            | Ok () -> Printf.printf "%-40s ok\n%!" file
            | Error m ->
                incr bad;
                Printf.printf "%-40s FAIL: %s\n%!" file m))
      (List.rev !corpus);
    exit (if !bad > 0 then 1 else 0)
  end;
  if !txds then begin
    (* Boosted-collections mode: linearizability (strict serializability)
       of semantic histories instead of word-level opacity. *)
    let specs =
      if !engine_arg = "all" then
        List.filter_map
          (fun n -> Engines.of_string n |> Option.map (fun s -> (n, s)))
          Engines.known_names
      else
        match Engines.of_string !engine_arg with
        | Some s -> [ (!engine_arg, s) ]
        | None ->
            die "unknown engine %S (known: %s)" !engine_arg
              (String.concat ", " Engines.known_names)
    in
    let seeds = if !policy_arg = "earliest" then 1 else !seeds in
    let total =
      List.fold_left
        (fun acc (name, spec) ->
          let st =
            Check.Txfuzz.fuzz ~spec
              ~make_policy:(make_policy_of_family !policy_arg)
              ~seeds ~progs:!progs ~threads:!threads ~verbose:!verbose ()
          in
          Printf.printf
            "%-16s %4d txds runs, %d undecided, %d violation(s)  \
             [linearizability]\n%!"
            name st.runs st.undecided
            (List.length st.failures);
          List.iter
            (fun (label, m) -> Printf.printf "VIOLATION %s\n%s\n%!" label m)
            st.failures;
          acc + List.length st.failures)
        0 specs
    in
    exit (if total > 0 then 1 else 0)
  end;
  if !self_check then begin
    (* The checker must catch an engine with validation disabled within
       the smoke budget. *)
    let st =
      fuzz_engine ~stop_after:1 ~name:"swisstm-broken" Engines.swisstm_broken
    in
    if st.failures = [] then begin
      Printf.printf
        "SELF-CHECK FAILED: broken engine slipped past the checker\n%!";
      exit 1
    end
    else begin
      Printf.printf "self-check ok: broken engine caught\n%!";
      exit 0
    end
  end;
  let specs =
    if !engine_arg = "all" then
      List.filter_map
        (fun n -> Engines.of_string n |> Option.map (fun s -> (n, s)))
        Engines.known_names
    else
      match Engines.of_string !engine_arg with
      | Some s -> [ (!engine_arg, s) ]
      | None ->
          die "unknown engine %S (known: %s)" !engine_arg
            (String.concat ", " Engines.known_names)
  in
  let total_failures =
    List.fold_left
      (fun acc (name, spec) ->
        acc + List.length (fuzz_engine ~name spec).failures)
      0 specs
  in
  exit (if total_failures > 0 then 1 else 0)
