(** Adversarial power-cut schedule generation for the fault-injection
    campaign.  A schedule is the array of on-durations given to
    {!Wario_emulator.Power.Schedule}. *)

(** {1 Splittable PRNG (splitmix64)} *)

type gen

val of_seed : int64 -> gen
(** Deterministic: the same seed always reproduces the same schedules. *)

val split : gen -> gen
(** An independent child generator; drawing from it never perturbs the
    parent's stream (schedules stay reproducible per case). *)

val next_int64 : gen -> int64
val int : gen -> bound:int -> int
(** Uniform in [\[0, bound)].  @raise Invalid_argument if [bound <= 0]. *)

(** {1 Reference-run geometry} *)

type reference = {
  total_cycles : int;  (** active cycles of the continuous run *)
  boundaries : int array;
      (** absolute active-cycle offset of every checkpoint commit *)
}

val reference_of_result : Wario_emulator.Emulator.result -> reference
(** Commit offsets of a {e continuous} run (boot + cumulative region
    sizes; the tail region ends at the halt and is not a commit). *)

(** {1 Schedules} *)

val exhaustive : reference -> int array list
(** One single-cut schedule at every commit offset −1 / +0 / +1: power
    dies just before, exactly at, and just after every checkpoint commit. *)

val random_schedule : gen -> reference -> int array
(** 1–4 cuts mixing boot-phase deaths, ±8-cycle jitter around a random
    commit, and uniform positions over the whole run. *)

val random_schedules : gen -> reference -> n:int -> int array list
