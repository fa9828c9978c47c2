(** Crash-consistency oracle: differential checking of injected-failure
    runs against the continuous run of the same compiled image (the
    automation of the paper's §5.1.1 output-equivalence argument). *)

type golden = {
  g_output : int32 list;
  g_exit : int32;
  g_digest : int64;  (** non-volatile memory digest, checkpoint area excluded *)
  g_result : Wario_emulator.Emulator.result;
}

type divergence =
  | Output_mismatch of { got : int32 list; want : int32 list }
  | Double_output of { got : int32 list; want : int32 list }
      (** the golden output embedded in a longer one: committed output was
          emitted again during replay *)
  | Exit_mismatch of { got : int32; want : int32 }
  | Memory_mismatch of { got : int64; want : int64 }
  | War_violations of Wario_emulator.Emulator.violation list
  | No_progress of string

val golden :
  ?engine:Wario_emulator.Emulator.engine -> Wario.Pipeline.compiled -> golden
(** Continuous-power reference run (via the stepping API, so the final
    memory digest is captured).  [engine] (default [Block]) is threaded to
    {!Wario_emulator.Emulator.run_batch}; oracle instances keep the WAR
    verifier on, so both engines resolve to the instrumented reference
    path and the verdicts are engine-independent by construction. *)

val golden_violations :
  golden -> Wario_emulator.Emulator.violation list
(** WAR violations of the reference run itself — a broken checkpoint
    schedule is caught even before any failure is injected. *)

val is_double_emission : want:int32 list -> got:int32 list -> bool
(** [want] embedded as a subsequence of a strictly longer [got]: committed
    output re-emitted during replay.  Exposed for the test suite. *)

val check_schedule :
  ?engine:Wario_emulator.Emulator.engine ->
  golden ->
  Wario.Pipeline.compiled ->
  int array ->
  (unit, divergence) result
(** Run [c]'s image with power cut after each scheduled on-duration and
    compare output, exit code, final memory digest and WAR-verifier
    verdict against the golden run. *)

val run_schedule :
  ?engine:Wario_emulator.Emulator.engine ->
  golden ->
  Wario.Pipeline.compiled ->
  int array ->
  Wario_emulator.Emulator.result option * (unit, divergence) result
(** Like {!check_schedule} but also returns the injected run's full result
    record ([None] when the supply admitted no forward progress) — the
    adversarial cut search reads [waste.w_reexec] from the same run it
    judges. *)

val run_supply :
  ?engine:Wario_emulator.Emulator.engine ->
  golden ->
  Wario.Pipeline.compiled ->
  Wario_emulator.Power.supply ->
  Wario_emulator.Emulator.result option * (unit, divergence) result
(** {!run_schedule} generalized to any supply (trace-driven and stochastic
    models included). *)

val string_of_divergence : divergence -> string
