(* Benchmark entry point: one workload, one seed, one process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-out FILE]

   Prints a human-readable report, then, as its last line, one JSON
   object with keys correct, attempted, failed and metrics: the
   end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
   perfbench/run.py builds this program and forwards the same flags. *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. in
  let trace = ref 0 and trace_out = ref "" in
  let names = List.map (fun w -> w.Pb_run.name) (Pb_run.workloads Pb_run.Full) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" names);
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measuring time budget");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--trace-out", Arg.Set_string trace_out, " span file for --trace 1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload names) then begin
    prerr_endline ("unknown --workload; one of: " ^ String.concat ", " names);
    exit 2
  end;
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed >= 0, --seconds > 0 and --trace 0|1";
    exit 2
  end;
  let traced = !trace = 1 in
  Memory.Heap.guard_on := true;
  if traced then Pb_host.Gc_time.start ();
  let r =
    Pb_run.run ?trace_out:(if !trace_out = "" then None else Some !trace_out)
      ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced ()
  in
  List.iter print_endline r.lines;
  print_endline (Obs.Json.to_string (Pb_run.result_json r))
