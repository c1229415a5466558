(** Thread groups (paper Section 4.2).

    Threads can create, join and leave named groups; a group
    carries shared state (notably the timing constraints all members want).
    Join/leave serialize on the group's spin lock, so their cost grows
    with contention — exactly the linear behaviour of Fig 10(a).

    Group operations are exposed as {e body fragments}: values of type
    {!Hrt_core.Thread.body} that perform the operation (consuming
    simulated time) and then return [Exit], which {!Hrt_core.Program.seq}
    interprets as "fragment done, continue with the next". *)

open Hrt_core

type t

val create : Scheduler.t -> name:string -> t
(** A new, empty group. Only the caller and the bodies built from it
    refer to it; nothing process-wide does, so a finished experiment's
    groups are collected with its simulated system. *)

val name : t -> string
val size : t -> int
val members : t -> Thread.t list
(** In join order. *)

val scheduler : t -> Scheduler.t

val join : t -> Thread.body
(** Fragment: join the group (serialized on the group lock; cost is
    position-dependent under contention). *)

val leave : t -> Thread.body

val set_constraints : t -> Constraints.t option -> unit
(** Attach shared constraints to the group (leader-side state). *)

val constraints : t -> Constraints.t option

val lock : t -> Thread.t -> unit
(** Leader lock for group admission. Raises [Invalid_argument] if already
    locked by another thread. *)

val unlock : t -> Thread.t -> unit
val locked_by : t -> Thread.t option

type section
(** A contended spin-lock-protected section: the [p]-th contender (since
    the section last went quiet) spins for [(p+1)] holdings of the lock.
    This models every serialized group-bookkeeping step and yields the
    linear per-member costs of Fig 10. *)

val make_section : t -> Hrt_hw.Platform.cost -> section
(** A fresh section whose holding cost is one sample of [cost]. *)

val enter_section : section -> Thread.body
(** Fragment: pass through the section. *)
