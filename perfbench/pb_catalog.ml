(* Every metric the benchmark prints, with its unit.  BENCHMARK.json names
   the same metrics; the self-test checks that the two agree. *)

let end_to_end =
  [
    ("host_s", "s");
    ("setup_s", "s");
    ("host_peak_mb", "MB");
    ("accesses_per_host_s", "1/s");
    ("sim_ktx_per_s", "ktx/s");
    ("sim_p50_cycles", "cycles");
    ("sim_tail_cycles", "cycles");
    ("sim_capacity_per_mcycle", "1/Mcycle");
  ]

let per_layer =
  [
    ("sim.dispatches", "count");
    ("sim.dispatches_per_access", "ratio");
    ("sim.host_ns_per_dispatch", "ns");
    ("phase.read_share", "ratio");
    ("phase.write_share", "ratio");
    ("phase.validate_share", "ratio");
    ("phase.commit_share", "ratio");
    ("phase.spin_share", "ratio");
    ("phase.backoff_share", "ratio");
    ("phase.idle_share", "ratio");
    ("phase.other_share", "ratio");
    ("topology.hits", "count");
    ("topology.misses", "count");
    ("topology.miss_ratio", "ratio");
    ("topology.misses_per_commit", "ratio");
    ("engine.commit_ratio", "ratio");
    ("engine.aborts_ww", "count");
    ("engine.aborts_rw", "count");
    ("engine.aborts_killed", "count");
    ("engine.wasted_cycle_share", "ratio");
    ("engine.reads_per_commit", "ratio");
    ("engine.writes_per_commit", "ratio");
    ("engine.waits_per_commit", "ratio");
    ("engine.max_consecutive_aborts", "count");
    ("engine.host_ns_per_tx", "ns");
    ("cm.backoffs", "count");
    ("cm.kills", "count");
    ("cm.phase_shifts", "count");
    ("cm.escalations", "count");
    ("heap.used_words", "words");
    ("heap.frees", "count");
    ("heap.reuses", "count");
    ("heap.double_frees", "count");
    ("heap.leaked_frees", "count");
    ("gc.minor_words_per_access", "words");
    ("gc.major_collections", "count");
    ("gc.host_share", "ratio");
    ("slo.queue_share", "ratio");
    ("slo.abort_share", "ratio");
    ("slo.backoff_share", "ratio");
    ("slo.exec_share", "ratio");
    ("slo.retries_per_request", "ratio");
    ("service.backlog_end", "count");
    ("trace.overhead_share", "ratio");
    ("op.samples", "count");
    ("error_ratio", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> Some u
  | None -> List.assoc_opt name per_layer
