(* Unit tests for the memory substrate: heap, stripes, fixed point. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Heap ------------------------------------------------------------- *)

let test_heap_rw () =
  let h = Memory.Heap.create ~words:1024 in
  let a = Memory.Heap.alloc h 4 in
  Memory.Heap.write h a 42;
  Memory.Heap.write h (a + 3) (-7);
  check Alcotest.int "read back" 42 (Memory.Heap.read h a);
  check Alcotest.int "read back 2" (-7) (Memory.Heap.read h (a + 3));
  check Alcotest.int "fresh words zero" 0 (Memory.Heap.read h (a + 1))

let test_heap_null_reserved () =
  let h = Memory.Heap.create ~words:1024 in
  let a = Memory.Heap.alloc h 1 in
  Alcotest.(check bool) "never hands out null" true (a > Memory.Heap.null)

let test_heap_alloc_disjoint () =
  let h = Memory.Heap.create ~words:(1 lsl 18) in
  let blocks = List.init 200 (fun i -> (Memory.Heap.alloc h (1 + (i mod 17)), 1 + (i mod 17))) in
  let sorted = List.sort compare blocks in
  let rec no_overlap = function
    | (a1, n1) :: ((a2, _) :: _ as rest) ->
        a1 + n1 <= a2 && no_overlap rest
    | _ -> true
  in
  Alcotest.(check bool) "blocks disjoint" true (no_overlap sorted)

let test_heap_oom () =
  let h = Memory.Heap.create ~words:128 in
  Alcotest.(check bool) "raises out of memory" true
    (try
       for _ = 1 to 1000 do
         ignore (Memory.Heap.alloc h 8)
       done;
       false
     with Memory.Heap.Out_of_memory _ -> true)

let test_heap_no_chunk_burn_near_exhaustion () =
  (* Regression: a chunk-path allocation that claims a fresh chunk and then
     fails must still record the claimed range — raising first leaked a
     full chunk per failed retry, so smaller requests that fit in the
     chunk's in-bounds prefix spuriously ran out of memory. *)
  let h = Memory.Heap.create ~words:12288 in
  check Alcotest.int "first word" 1 (Memory.Heap.alloc h 1);
  check Alcotest.int "fills first chunk" 2 (Memory.Heap.alloc h 8000);
  Alcotest.(check bool) "second big alloc exhausts" true
    (try
       ignore (Memory.Heap.alloc h 8000);
       false
     with Memory.Heap.Out_of_memory _ -> true);
  (* The failed allocation's chunk starts at 8193 and its in-bounds prefix
     (up to 12288) must remain usable. *)
  check Alcotest.int "prefix still reachable" 8193 (Memory.Heap.alloc h 100)

let test_heap_bounds_checked () =
  let h = Memory.Heap.create ~words:64 in
  Alcotest.(check bool) "read oob rejected" true
    (try
       ignore (Memory.Heap.read h 9999);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "read null rejected" true
    (try
       ignore (Memory.Heap.read h 0);
       false
     with Invalid_argument _ -> true)

let test_heap_large_block () =
  let h = Memory.Heap.create ~words:(1 lsl 16) in
  (* Blocks above the chunk size take the direct path. *)
  let a = Memory.Heap.alloc h 20_000 in
  Memory.Heap.write h (a + 19_999) 5;
  check Alcotest.int "large block usable" 5 (Memory.Heap.read h (a + 19_999))

let test_heap_alloc_per_thread_sharded () =
  (* Allocations from different simulated threads must not overlap. *)
  let h = Memory.Heap.create ~words:(1 lsl 18) in
  let acquired = Array.make 4 [] in
  let body tid () =
    for _ = 1 to 50 do
      acquired.(tid) <- Memory.Heap.alloc h 3 :: acquired.(tid)
    done
  in
  ignore (Runtime.Sim.run (Array.init 4 body));
  let all = Array.to_list acquired |> List.concat |> List.sort compare in
  let rec distinct = function
    | a :: (b :: _ as rest) -> a <> b && distinct rest
    | _ -> true
  in
  Alcotest.(check bool) "addresses distinct" true (distinct all)

(* --- Stripe ------------------------------------------------------------ *)

let test_stripe_default_granularity () =
  let s = Memory.Stripe.create () in
  check Alcotest.int "4 words" 4 (Memory.Stripe.granularity_words s);
  (* Words 0..3 share stripe 0; word 4 starts stripe 1. *)
  Alcotest.(check bool) "0 and 3 same" true (Memory.Stripe.same_stripe s 0 3);
  Alcotest.(check bool) "3 and 4 differ" false (Memory.Stripe.same_stripe s 3 4)

let test_stripe_paper_mapping () =
  (* Paper §3.3: index = (addr >> log2 gran) & (table_size - 1). *)
  let s = Memory.Stripe.create ~granularity_words:4 ~table_bits:8 () in
  check Alcotest.int "mapping" ((1234 lsr 2) land 255) (Memory.Stripe.index s 1234)

let test_stripe_aliasing_wraps () =
  let s = Memory.Stripe.create ~granularity_words:1 ~table_bits:4 () in
  Alcotest.(check bool) "aliases 16 apart" true (Memory.Stripe.same_stripe s 3 19)

let prop_stripe_index_in_table =
  QCheck.Test.make ~name:"stripe index within table" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 6))
    (fun (addr, g) ->
      let s = Memory.Stripe.create ~granularity_words:(1 lsl g) ~table_bits:10 () in
      let i = Memory.Stripe.index s addr in
      i >= 0 && i < Memory.Stripe.table_size s)

let prop_stripe_consecutive_words_share =
  QCheck.Test.make ~name:"words within a stripe share its lock" ~count:500
    QCheck.(pair (int_range 0 100_000) (int_range 1 5))
    (fun (addr, g) ->
      let gran = 1 lsl g in
      let s = Memory.Stripe.create ~granularity_words:gran ~table_bits:16 () in
      let base = addr - (addr mod gran) in
      List.for_all
        (fun k -> Memory.Stripe.same_stripe s base (base + k))
        (List.init gran Fun.id))

let test_stripe_invalid_args () =
  Alcotest.(check bool) "non-pow2 rejected" true
    (try
       ignore (Memory.Stripe.create ~granularity_words:3 ());
       false
     with Invalid_argument _ -> true)

(* --- Fixedpoint ---------------------------------------------------------- *)

let prop_fixedpoint_roundtrip =
  QCheck.Test.make ~name:"fixedpoint roundtrip within eps" ~count:500
    (QCheck.float_range (-1000.) 1000.)
    (fun f ->
      let eps = 2. /. Memory.Fixedpoint.scale in
      Float.abs (Memory.Fixedpoint.to_float (Memory.Fixedpoint.of_float f) -. f)
      < eps)

let prop_fixedpoint_add =
  QCheck.Test.make ~name:"fixedpoint addition tracks float addition" ~count:500
    QCheck.(pair (float_range (-100.) 100.) (float_range (-100.) 100.))
    (fun (a, b) ->
      let fa = Memory.Fixedpoint.of_float a and fb = Memory.Fixedpoint.of_float b in
      let eps = 4. /. Memory.Fixedpoint.scale in
      Float.abs (Memory.Fixedpoint.to_float (Memory.Fixedpoint.add fa fb) -. (a +. b))
      < eps)

let test_fixedpoint_mul_div () =
  let x = Memory.Fixedpoint.of_float 3.5 and y = Memory.Fixedpoint.of_float 2.0 in
  Alcotest.(check (float 0.001)) "mul" 7.0
    (Memory.Fixedpoint.to_float (Memory.Fixedpoint.mul x y));
  Alcotest.(check (float 0.001)) "div" 1.75
    (Memory.Fixedpoint.to_float (Memory.Fixedpoint.div x y));
  Alcotest.(check bool) "div by zero rejected" true
    (try
       ignore (Memory.Fixedpoint.div x 0);
       false
     with Invalid_argument _ -> true)

let test_fixedpoint_int_conversion () =
  Alcotest.(check int) "of_int/to_int" 17
    (Memory.Fixedpoint.to_int_round (Memory.Fixedpoint.of_int 17));
  Alcotest.(check int) "round" 3
    (Memory.Fixedpoint.to_int_round (Memory.Fixedpoint.of_float 2.6))

(* Plain swisstm under an armed reclaimer announces quiescent states at
   its transaction boundaries, like every kernel engine: blocks freed by
   committed update transactions pass their grace period and leave limbo
   while the thread keeps running, with no [drain]. *)
let test_swisstm_announces_when_armed () =
  let heap = Memory.Heap.create ~words:(1 lsl 14) in
  let engine = Engines.make (Engines.with_table_bits 8 Engines.swisstm) heap in
  let slot = Memory.Heap.alloc heap 1 in
  (* threads left online by earlier runs in this process would hold every
     grace period open *)
  for tid = 0 to Runtime.Topology.max_cores - 1 do
    Memory.Epoch.offline ~tid
  done;
  let adv0 = Memory.Epoch.advances () in
  let rec0 = Memory.Epoch.reclaimed () in
  Memory.Epoch.arm ();
  Fun.protect
    ~finally:(fun () ->
      Memory.Epoch.offline ~tid:0;
      Memory.Epoch.disarm ())
    (fun () ->
      for _ = 1 to 64 do
        Stm_intf.Engine.atomic engine ~tid:0 (fun tx ->
            let fresh = tx.Stm_intf.Engine.alloc 4 in
            let old = tx.Stm_intf.Engine.read slot in
            tx.Stm_intf.Engine.write slot fresh;
            if old <> 0 then tx.Stm_intf.Engine.free old 4)
      done;
      check Alcotest.bool "global epoch advanced" true
        (Memory.Epoch.advances () > adv0);
      check Alcotest.bool "freed blocks reclaimed before any drain" true
        (Memory.Epoch.reclaimed () > rec0))

(* Native domains defer frees concurrently: the deferred and reclaimed
   counters must count every one (the gate's native liveness check
   requires deferred = reclaimed after a drain). *)
let test_counters_exact_across_domains () =
  let heap = Memory.Heap.create ~words:(1 lsl 20) in
  let per_domain = 200_000 in
  let def0 = Memory.Epoch.deferred () in
  let rec0 = Memory.Epoch.reclaimed () in
  Memory.Epoch.arm ();
  (* a start barrier, so the domains' loops overlap *)
  let ready = Atomic.make 0 in
  let doms =
    Array.init 4 (fun tid ->
        Domain.spawn (fun () ->
            Runtime.Exec.set_native_tid tid;
            Atomic.incr ready;
            while Atomic.get ready < 4 do Domain.cpu_relax () done;
            for _ = 1 to per_domain do
              Memory.Heap.free heap (Memory.Heap.alloc heap 1) 1
            done))
  in
  Array.iter Domain.join doms;
  Memory.Epoch.disarm ();
  check Alcotest.int "every deferral counted" (4 * per_domain)
    (Memory.Epoch.deferred () - def0);
  check Alcotest.int "every reclamation counted" (4 * per_domain)
    (Memory.Epoch.reclaimed () - rec0)

let suite =
  [
    ( "epoch",
      [
        Alcotest.test_case "swisstm announces when armed" `Quick
          test_swisstm_announces_when_armed;
        Alcotest.test_case "counters exact across domains" `Quick
          test_counters_exact_across_domains;
      ] );
    ( "heap",
      [
        Alcotest.test_case "read/write" `Quick test_heap_rw;
        Alcotest.test_case "null reserved" `Quick test_heap_null_reserved;
        Alcotest.test_case "allocations disjoint" `Quick test_heap_alloc_disjoint;
        Alcotest.test_case "out of memory" `Quick test_heap_oom;
        Alcotest.test_case "no chunk burn near exhaustion" `Quick
          test_heap_no_chunk_burn_near_exhaustion;
        Alcotest.test_case "bounds checked" `Quick test_heap_bounds_checked;
        Alcotest.test_case "large blocks" `Quick test_heap_large_block;
        Alcotest.test_case "per-thread sharding" `Quick
          test_heap_alloc_per_thread_sharded;
      ] );
    ( "stripe",
      [
        Alcotest.test_case "default granularity" `Quick
          test_stripe_default_granularity;
        Alcotest.test_case "paper mapping" `Quick test_stripe_paper_mapping;
        Alcotest.test_case "aliasing wraps" `Quick test_stripe_aliasing_wraps;
        Alcotest.test_case "invalid args" `Quick test_stripe_invalid_args;
        qtest prop_stripe_index_in_table;
        qtest prop_stripe_consecutive_words_share;
      ] );
    ( "fixedpoint",
      [
        qtest prop_fixedpoint_roundtrip;
        qtest prop_fixedpoint_add;
        Alcotest.test_case "mul/div" `Quick test_fixedpoint_mul_div;
        Alcotest.test_case "int conversion" `Quick test_fixedpoint_int_conversion;
      ] );
  ]
