(* The benchmark's own tests.

     selftest.exe [BENCHMARK.json]

   Checks the tail-percentile helper, the metric-name rule, the host-time
   safety stop on the pass loop, that the metric catalog and
   BENCHMARK.json agree name for name and unit for unit, and that a
   tiny-size run of every workload, untraced and traced, prints every
   metric with its unit, passes its output checks and has error_ratio 0.
   Exits 1 if any check fails. *)

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let test_tail_percentile () =
  let cases =
    [
      (0, None); (99, None); (100, Some 0.9); (999, Some 0.9);
      (1000, Some 0.99); (9_999, Some 0.99); (10_000, Some 0.999);
      (99_999, Some 0.999); (100_000, Some 0.9999);
    ]
  in
  List.iter
    (fun (n, q) ->
      expect
        (Printf.sprintf "tail_percentile %d" n)
        (Pb_stats.tail_percentile n = q))
    cases;
  expect "tail_percentile capped at p99"
    (Pb_stats.tail_percentile ~max:0.99 100_000 = Some 0.99);
  let a = Array.init 1000 (fun i -> i + 1) in
  expect "quantile p50 of 1..1000" (Pb_stats.quantile_sorted a 0.5 = 500);
  expect "quantile p99 of 1..1000" (Pb_stats.quantile_sorted a 0.99 = 990);
  expect "label p99.9" (Pb_stats.percentile_label 0.999 = "p99.9")

let test_names () =
  List.iter
    (fun (n, u) -> expect ("metric name " ^ n) (Pb_stats.valid_name n && u <> ""))
    (Pb_catalog.end_to_end @ Pb_catalog.per_layer);
  expect "name rule rejects a space" (not (Pb_stats.valid_name "a b"));
  expect "name rule rejects a slash" (not (Pb_stats.valid_name "a/b"))

let test_deadline () =
  let now = Pb_host.now_ns () in
  let count ~t0 ~deadline k = List.length (Pb_run.passes_until ~t0 ~deadline k Fun.id) in
  expect "all passes run before the deadline" (count ~t0:now ~deadline:1e9 5 = 5);
  expect "two passes run past the deadline"
    (count ~t0:(Int64.sub now 10_000_000_000L) ~deadline:1. 5 = 2);
  expect "no more passes than asked past the deadline"
    (count ~t0:(Int64.sub now 10_000_000_000L) ~deadline:1. 1 = 1);
  expect "deadline is 3x --seconds, at most 100 s"
    (Pb_run.deadline_s ~seconds:10. = 30. && Pb_run.deadline_s ~seconds:60. = 100.)

let json_pairs bench key =
  let open Obs.Json in
  match Option.bind (member key bench) to_list with
  | None -> []
  | Some l ->
      List.filter_map
        (fun m ->
          match (Option.bind (member "name" m) to_str, Option.bind (member "unit" m) to_str) with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        l

let test_benchmark_json path =
  let bench = Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all) in
  let same key catalog =
    let listed = json_pairs bench key in
    expect
      (Printf.sprintf "%s in %s matches the catalog" key path)
      (List.sort compare listed = List.sort compare catalog)
  in
  same "end_to_end" Pb_catalog.end_to_end;
  same "per_layer" Pb_catalog.per_layer;
  let workloads =
    match Option.bind (Obs.Json.member "workloads" bench) Obs.Json.to_list with
    | Some l -> List.filter_map (fun w -> Option.bind (Obs.Json.member "name" w) Obs.Json.to_str) l
    | None -> []
  in
  expect "workloads in BENCHMARK.json are the benchmark's"
    (List.sort compare workloads
    = List.sort compare (List.map (fun w -> w.Pb_run.name) (Pb_run.workloads Pb_run.Full)))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_smoke () =
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let tag = Printf.sprintf "%s traced=%b" w.Pb_run.name traced in
          let r =
            Pb_run.run ~size:Pb_run.Tiny ~workload:w.Pb_run.name ~seed:7
              ~seconds:0.01 ~traced ()
          in
          if not r.correct then List.iter print_endline r.lines;
          expect (tag ^ ": output checks pass") r.correct;
          expect (tag ^ ": error_ratio = 0") (r.failed = 0 && r.attempted > 0);
          let catalog = if traced then Pb_catalog.per_layer else Pb_catalog.end_to_end in
          let printed = String.concat "\n" r.lines in
          expect (tag ^ ": every metric printed with its unit")
            (List.for_all
               (fun (n, u) ->
                 List.mem_assoc n r.metrics
                 && List.exists
                      (fun l -> contains l n && contains l (" " ^ u))
                      (String.split_on_char '\n' printed))
               catalog);
          if traced then
            expect (tag ^ ": error_ratio metric is 0")
              (List.assoc_opt "error_ratio" r.metrics = Some 0.))
        [ false; true ])
    (Pb_run.workloads Pb_run.Tiny)

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json" in
  Memory.Heap.guard_on := true;
  Pb_host.Gc_time.start ();
  test_tail_percentile ();
  test_names ();
  test_deadline ();
  test_benchmark_json path;
  test_smoke ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end;
  print_endline "self-test passed"
