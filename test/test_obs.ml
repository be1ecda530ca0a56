(* Observability layer: histogram bucketing, registry reset semantics,
   JSON printer/parser, catapult export round-trip, and the profiler's
   no-perturbation contract. *)

open Alcotest

(* --- Hist bucketing ------------------------------------------------------ *)

let test_hist_bucket_edges () =
  let module H = Obs.Metrics.Hist in
  check int "bucket_of 0" 0 (H.bucket_of 0);
  check int "bucket_of (-5) clamps to 0" 0 (H.bucket_of (-5));
  check int "bucket_of 1" 1 (H.bucket_of 1);
  check int "bucket_of 2" 2 (H.bucket_of 2);
  check int "bucket_of 3" 2 (H.bucket_of 3);
  check int "bucket_of 4" 3 (H.bucket_of 4);
  check int "bucket_of 1023" 10 (H.bucket_of 1023);
  check int "bucket_of 1024" 11 (H.bucket_of 1024);
  check int "bucket_of max_int" 62 (H.bucket_of max_int);
  check bool "max bucket within range" true (H.bucket_of max_int < H.n_buckets);
  check int "bucket_upper 0" 0 (H.bucket_upper 0);
  check int "bucket_upper 1" 1 (H.bucket_upper 1);
  check int "bucket_upper 10" 1023 (H.bucket_upper 10);
  (* every value lands in a bucket whose upper bound covers it *)
  List.iter
    (fun v ->
      check bool
        (Printf.sprintf "upper(bucket_of %d) >= %d" v v)
        true
        (H.bucket_upper (H.bucket_of v) >= v))
    [ 0; 1; 2; 3; 7; 8; 1000; 123_456_789; max_int ]

let test_hist_observe () =
  let module H = Obs.Metrics.Hist in
  let h = H.create () in
  check int "empty count" 0 (H.count h);
  check int "empty quantile" 0 (H.approx_quantile h 0.5);
  List.iter (H.observe h) [ 0; 1; 100; 100; 1_000_000; max_int ];
  check int "count" 6 (H.count h);
  check int "max" max_int (H.max_value h);
  check int "bucket 0 holds the zero" 1 (H.bucket h 0);
  check int "bucket 7 holds both 100s" 2 (H.bucket h (H.bucket_of 100));
  (* sum saturates ordinary arithmetic but never goes negative here *)
  check bool "p50 covers 100" true (H.approx_quantile h 0.5 >= 100);
  check bool "p100 covers max_int" true (H.approx_quantile h 1.0 >= max_int - 1);
  H.reset h;
  check int "reset count" 0 (H.count h);
  check int "reset max" 0 (H.max_value h)

(* --- registry reset semantics ------------------------------------------- *)

let test_registry_reset () =
  let eid = Obs.Metrics.register_engine "test-reset-engine" in
  check int "registration is idempotent by name" eid
    (Obs.Metrics.register_engine "test-reset-engine");
  Obs.Metrics.enable ();
  Obs.Metrics.on_tx_begin ~eid ~tid:0;
  Obs.Metrics.on_tx_commit ~tid:0;
  Obs.Metrics.on_stripe_conflict ~eid ~stripe:7;
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  (* registrations survive reset: the same name maps to the same eid and
     hooks still work without re-registering *)
  check int "eid survives reset" eid
    (Obs.Metrics.register_engine "test-reset-engine");
  check bool "name still listed" true
    (List.mem "test-reset-engine" (Obs.Metrics.registered ()));
  Obs.Metrics.enable ();
  Obs.Metrics.on_tx_begin ~eid ~tid:1;
  Obs.Metrics.on_tx_commit ~tid:1;
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

(* --- JSON printer/parser round-trip -------------------------------------- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let j =
    Obj
      [
        ("int", Int 42);
        ("neg", Int (-7));
        ("big", Int max_int);
        ("float", Float 1.5);
        ("str", Str "a\"b\\c\nd\te");
        ("null", Null);
        ("bools", List [ Bool true; Bool false ]);
        ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
      ]
  in
  let j' = of_string (to_string j) in
  check bool "round-trip equal" true (j = j');
  check (option int) "member int" (Some 42)
    (Option.bind (member "int" j') to_int);
  check (option int) "member big" (Some max_int)
    (Option.bind (member "big" j') to_int);
  check (option string) "member str" (Some "a\"b\\c\nd\te")
    (Option.bind (member "str" j') to_str);
  (match of_string "{\"a\": [1, 2.5, \"x\", null, true]}" with
  | Obj [ ("a", List [ Int 1; Float 2.5; Str "x"; Null; Bool true ]) ] -> ()
  | _ -> fail "hand-written JSON parsed wrong");
  check bool "rejects garbage" true
    (match of_string "{\"a\": 1} trailing" with
    | exception Obs.Json.Parse_error _ -> true
    | _ -> false)

(* --- structural compare (the gate's frozen-file diff) ---------------------- *)

let test_json_diff () =
  let open Obs.Json in
  let tree p999 =
    Obj
      [
        ("mode", Str "smoke");
        ( "ramp",
          List
            [
              Obj [ ("p50", Int 1); ("p999", Int 10) ];
              Obj [ ("p50", Int 2); ("p999", Int 20) ];
              Obj [ ("p50", Int 3); ("p999", Int p999) ];
            ] );
      ]
  in
  let diff = diff ~path:"service" in
  check (option string) "equal trees" None (diff (tree 127036) (tree 127036));
  check (option string) "changed int in a nested list"
    (Some "service.ramp[2].p999: 127036 \u{2260} 127037")
    (diff (tree 127036) (tree 127037));
  check (option string) "key order is not significant" None
    (diff (Obj [ ("a", Int 1); ("b", Int 2) ]) (Obj [ ("b", Int 2); ("a", Int 1) ]));
  check (option string) "missing key" (Some "service.b: missing")
    (diff (Obj [ ("a", Int 1); ("b", Int 2) ]) (Obj [ ("a", Int 1) ]));
  check (option string) "extra key" (Some "service.c: unexpected")
    (diff (Obj [ ("a", Int 1) ]) (Obj [ ("a", Int 1); ("c", Null) ]));
  check (option string) "missing list element" (Some "service[1]: missing")
    (diff (List [ Int 1; Int 2 ]) (List [ Int 1 ]));
  check (option string) "Int 1 vs Float 1.0"
    (Some "x: 1 \u{2260} 1.0")
    (Obs.Json.diff ~path:"x" (Int 1) (Float 1.0));
  (* A float printed with %.17g and parsed back is the same double, so a
     frozen file written by another process compares equal — also when a
     tool re-wrote it with the shortest round-tripping digits. *)
  let f = 0.1 +. 0.2 and g = 167.9755948501685 in
  let printed = to_string (List [ Float f; Float g ]) in
  check string "printed at %.17g" "[0.30000000000000004,167.97559485016851]"
    printed;
  check (option string) "float round-trips through %.17g" None
    (diff (List [ Float f; Float g ]) (of_string printed));
  check (option string) "shortest digits parse to the same double" None
    (diff (of_string "[0.30000000000000004,167.9755948501685]")
       (of_string printed));
  check bool "nearest neighbour differs" true
    (diff (Float f) (Float (Float.succ f)) <> None)

(* --- catapult export round-trip ------------------------------------------ *)

let test_catapult_roundtrip () =
  let open Stm_intf in
  let ev =
    [|
      Trace.Begin { tid = 0; time = 0 };
      Trace.Read { tid = 0; addr = 8; value = 1; time = 10 };
      Trace.Write { tid = 0; addr = 8; value = 2; time = 20 };
      Trace.CmDecision
        { tid = 1; victim = 0; decision = Trace.Cm_wait; time = 25 };
      Trace.Begin { tid = 1; time = 30 };
      Trace.Abort { tid = 1; reason = Tx_signal.Ww_conflict; time = 40 };
      Trace.Commit { tid = 0; time = 50 };
      Trace.Begin { tid = 1; time = 60 };
      (* still open at the end: must export as a live slice *)
    |]
  in
  let path = Filename.temp_file "test_obs" ".trace.json" in
  Obs.Export.write_file path [ ("engine-a", ev); ("engine-b", [||]) ];
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let j = Obs.Json.of_string raw in
  (match Obs.Export.validate_catapult j with
  | Ok () -> ()
  | Error e -> fail ("schema: " ^ e));
  let events =
    match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
    | Some l -> l
    | None -> fail "no traceEvents"
  in
  let with_ph p =
    List.filter
      (fun e ->
        match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str with
        | Some x -> x = p
        | None -> false)
      events
  in
  (* two process_name metadata records, one per section *)
  check int "metadata records" 2 (List.length (with_ph "M"));
  (* three attempts on engine-a: committed, aborted, live *)
  check int "tx slices" 3 (List.length (with_ph "X"));
  (* R + W + CmDecision instants *)
  check int "instants" 3 (List.length (with_ph "i"));
  let outcomes =
    List.filter_map
      (fun e ->
        Option.bind (Obs.Json.member "args" e) (fun a ->
            Option.bind (Obs.Json.member "outcome" a) Obs.Json.to_str))
      (with_ph "X")
    |> List.sort compare
  in
  check (list string) "slice outcomes"
    [ "abort:w/w"; "commit"; "live" ]
    outcomes

let test_catapult_rejects_malformed () =
  let bad = Obs.Json.Obj [ ("traceEvents", Obs.Json.List []) ] in
  check bool "empty traceEvents rejected" true
    (match Obs.Export.validate_catapult bad with Error _ -> true | Ok () -> false);
  check bool "non-object rejected" true
    (match Obs.Export.validate_catapult (Obs.Json.Int 3) with
    | Error _ -> true
    | Ok () -> false)

(* --- profiler: attribution and no perturbation --------------------------- *)

(* A contended 2-thread micro on one engine; returns elapsed cycles. *)
let contended_run spec =
  let heap = Memory.Heap.create ~words:(1 lsl 12) in
  let base = Memory.Heap.alloc heap 64 in
  let engine = Engines.make spec heap in
  let step ~tid ~op =
    Stm_intf.Engine.atomic engine ~tid (fun tx ->
        let a = base + (((op * 3) + tid) land 15) in
        let v = tx.Stm_intf.Engine.read a in
        tx.Stm_intf.Engine.write a (v + 1))
  in
  let r =
    Harness.Workload.run_for_duration engine ~threads:2
      ~duration_cycles:50_000 step
  in
  r.elapsed_cycles

let test_profiler_attribution () =
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  let elapsed = contended_run Engines.swisstm in
  Obs.Profile.disable ();
  let s = Obs.Profile.snapshot () in
  check bool "cycles attributed" true (Obs.Profile.total s > 0);
  check bool "attribution covers the run" true (Obs.Profile.total s >= elapsed);
  let phase name =
    let rec idx i =
      if Obs.Profile.phase_names.(i) = name then i else idx (i + 1)
    in
    s.Obs.Profile.cycles.(idx 0)
  in
  check bool "read phase nonzero" true (phase "read" > 0);
  check bool "commit phase nonzero" true (phase "commit" > 0)

let test_profiler_no_perturbation () =
  (* Same seed, same workload: elapsed simulated cycles must be identical
     with every collector off, on, and off again. *)
  let spec = Engines.tinystm in
  let base = contended_run spec in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Obs.Profile.reset ();
  Obs.Profile.enable ();
  Stm_intf.Trace.start ();
  let metered = contended_run spec in
  ignore (Stm_intf.Trace.stop ());
  Obs.Profile.disable ();
  Obs.Metrics.disable ();
  let after = contended_run spec in
  check int "metered run bit-identical" base metered;
  check int "unmetered-again bit-identical" base after

let suite =
  [
    ( "obs:hist",
      [
        test_case "bucket edges (0, max_int)" `Quick test_hist_bucket_edges;
        test_case "observe/quantile/reset" `Quick test_hist_observe;
      ] );
    ( "obs:registry",
      [ test_case "reset keeps registrations" `Quick test_registry_reset ] );
    ( "obs:json",
      [
        test_case "print/parse round-trip" `Quick test_json_roundtrip;
        test_case "structural diff names the first differing leaf" `Quick
          test_json_diff;
      ] );
    ( "obs:export",
      [
        test_case "catapult file round-trip" `Quick test_catapult_roundtrip;
        test_case "schema rejects malformed" `Quick
          test_catapult_rejects_malformed;
      ] );
    ( "obs:profiler",
      [
        test_case "phase attribution" `Quick test_profiler_attribution;
        test_case "collectors do not perturb schedules" `Quick
          test_profiler_no_perturbation;
      ] );
  ]
