(* The split lock pair of SwissTM's global lock table (paper §3, §3.3),
   and its encoding, shared by the SwissTM engine and [Compose] (which
   builds its own three-word lines but encodes them the same way).

   Each memory stripe maps to a pair of locks:

   - [w_lock] — acquired *eagerly* by a writer with a CAS.  Unlocked = 0,
     locked = owner's thread id + 1 (the C implementation stores a pointer
     to the owner's write-log entry; an id into the descriptor table carries
     the same information here).
   - [r_lock] — when unlocked holds the stripe's version number shifted
     left by one (LSB = 0); equal to 1 when locked.  Acquired only at
     commit time by the stripe's w-lock owner, with a plain store (no CAS
     needed, paper §3.3), to stop readers from observing the write-back. *)

type t = {
  stripe : Memory.Stripe.t;
  r_locks : Runtime.Tmatomic.t array;
  w_locks : Runtime.Tmatomic.t array;
}

let w_unlocked = 0
let r_locked = 1

let create stripe =
  let n = Memory.Stripe.table_size stripe in
  (* The two locks of an entry are adjacent words in the C implementation
     and share a cache line: touching the w-lock makes the r-lock access a
     hit.  Model that by giving each entry one shared line. *)
  let lines = Array.init n (fun _ -> Runtime.Tmatomic.fresh_line ()) in
  {
    stripe;
    r_locks = Array.init n (fun i -> Runtime.Tmatomic.make_shared lines.(i) 0);
    w_locks =
      Array.init n (fun i -> Runtime.Tmatomic.make_shared lines.(i) w_unlocked);
  }

let index t addr = Memory.Stripe.index t.stripe addr

let r_lock t idx = t.r_locks.(idx)
let w_lock t idx = t.w_locks.(idx)

(* r-lock encoding *)
let is_r_locked v = v land 1 = 1
let version_of v = v lsr 1
let encode_version ver = ver lsl 1

(* w-lock encoding *)
let w_owner_of v = v - 1 (* valid only when v <> w_unlocked *)
let encode_w_owner tid = tid + 1
