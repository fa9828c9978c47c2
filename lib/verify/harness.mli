(** What the fault-injection campaign ({!Campaign}), the regression
    corpus ({!Corpus}) and [iclang verify] share: the default case set,
    the static pre-check and reproducer replay. *)

val instrumented_environments : Wario.Pipeline.environment list
(** Every environment except [Plain] (which is only ever run on
    continuous power). *)

val default_workloads : (string * string) list
(** Every micro program, as (name, MiniC source). *)

type precheck = {
  p_workload : string;
  p_env : Wario.Pipeline.environment;
  p_report : string;  (** rendered rejection, witness paths included *)
}

val static_precheck :
  ?log:(string -> unit) ->
  envs:Wario.Pipeline.environment list ->
  workloads:(string * string) list ->
  Wario.Pipeline.options ->
  precheck list
(** Run the static idempotence certifier (lib/certify) on every case's
    build; returns the rejected cases.  A certified image cannot trip the
    dynamic WAR verifier, so rejections pinpoint pipeline bugs before any
    schedule is injected. *)

val replay : Repro.t -> (unit, string) result
(** Recompile exactly as recorded and re-run the oracle on the recorded
    cuts; [Error] describes the (reproduced) divergence. *)
