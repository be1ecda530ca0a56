(** Execution-mode dispatch between the simulator and native domains.

    Engine and benchmark code calls these on every simulated instruction;
    under {!Sim.run} they charge virtual cycles and cooperate with the
    scheduler, natively they are (nearly) free no-ops. *)

val in_sim : unit -> bool

val tick : int -> unit
(** Charge virtual cycles to the calling simulated thread (no-op natively).
    May switch to another simulated thread. *)

val yield : unit -> unit
(** Yield to the scheduler (no-op natively).  Under earliest-first the
    yield is skipped while the caller would be resumed straight away. *)

val self : unit -> int
(** Logical thread id: simulated tid, or the id registered with
    {!set_native_tid} (0 by default). *)

val now : unit -> int
(** Virtual time of the calling simulated thread; 0 natively. *)

val pause : unit -> unit
(** One spin-wait iteration: charges {!Costs.t.pause} and yields in a
    simulation, except under earliest-first while the caller would be
    resumed straight away; [Domain.cpu_relax] natively. *)

val set_native_tid : int -> unit
(** Register the calling domain's logical thread id (native mode). *)

(** {2 Simulated-time profiler backend}

    Every charged cycle flows through {!tick}/{!tick_as}/{!pause}, so the
    accounting lives here and attributes all of simulated time to a phase
    by construction.  [lib/obs] installs nothing: it flips {!prof_on} and
    reads the matrix back with {!prof_read}.  Engines declare phase
    regions with {!set_phase}, guarding each call with [if !prof_on] so
    the profiler-off fast path costs one load + one predictable branch.
    The profiler charges no cycles of its own: profiled and unprofiled
    runs take bit-identical schedules.  Sim-only ([tick] is a no-op
    natively, so nothing accumulates in native mode). *)

val prof_on : bool ref

val hooks_on : bool ref
(** OR of the per-access annotation collectors (profiler, trace
    recording).  Engine read/write wrappers test only this flag on the
    fast path and consult [prof_on] / [Trace.enabled] individually behind
    it, keeping the everything-off cost at one load + branch per access.
    Maintained by [Trace.start]/[stop] and [Obs.Profile.enable]/
    [disable]; do not flip directly. *)

val prof_threads : int
val n_phases : int

val ph_other : int
(** Application compute (the phase engines restore on leaving an op). *)

val ph_read : int
val ph_write : int
val ph_validate : int

val ph_commit : int
(** Commit processing, including tx begin/end bookkeeping overhead. *)

val ph_spin : int
(** Charged automatically by {!pause}. *)

val ph_backoff : int
(** Charged automatically by [Backoff.wait_cycles] via {!tick_as}. *)

val ph_idle : int
(** Open-system worker idling until the next request arrival (charged by
    {!idle_until}). *)

val set_phase : int -> int -> unit
(** [set_phase tid phase] — callers must guard with [if !prof_on]. *)

val get_phase : int -> int

val tick_as : int -> int -> unit
(** [tick_as phase n] charges like {!tick} but attributes to [phase]
    regardless of the calling thread's current phase. *)

val idle_until : int -> unit
(** Advance the calling simulated thread's virtual clock to the given
    absolute time, attributing the gap to {!ph_idle} (no-op if the clock
    is already past it, or natively).  The service harness uses this to
    decouple offered load from service rate: a worker with no pending
    request sleeps until the next arrival. *)

val prof_read : tid:int -> phase:int -> int
(** Accumulated cycles for one (thread, phase) cell. *)

val prof_reset : unit -> unit
(** Zero the matrix and reset every thread's phase to {!ph_other}. *)

(**/**)

(* Scheduler internals shared with {!Sim}; not part of the public API. *)
type _ Effect.t += Yield : unit Effect.t

val cur : int ref
val vtimes : int array ref
val next_deadline : int ref

val blocked_yield : bool ref
(* Set by [pause]/[yield] (a no-progress yield), cleared by [Sim] before
   resuming a thread.  Lets non-earliest-first scheduler policies demote
   spinners instead of livelocking on them. *)

val elide_self : bool ref
(* Set by [Sim]'s earliest-first loops: [pause]/[yield] below
   [next_deadline] skip the yield the scheduler would answer by resuming
   the same thread. *)
