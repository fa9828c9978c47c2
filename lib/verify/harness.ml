(* What the fault-injection campaign, the regression corpus and
   `iclang verify` share: the default (environment, workload) case set,
   the static pre-check run before any schedule is injected, and
   reproducer replay. *)

module P = Wario.Pipeline

let instrumented_environments =
  List.filter (fun e -> e <> P.Plain) P.all_environments

let default_workloads =
  List.map
    (fun (m : Wario_workloads.Micro.t) ->
      (m.Wario_workloads.Micro.name, m.Wario_workloads.Micro.source))
    Wario_workloads.Micro.all

(* Static pre-check: run the idempotence certifier (lib/certify) on each
   case's build before injecting any power failure.  A certified image
   cannot trip the dynamic WAR verifier, so a rejection pinpoints a pipeline
   bug — with a concrete load→store witness — without spending a single
   schedule. *)
type precheck = {
  p_workload : string;
  p_env : P.environment;
  p_report : string;  (** rendered rejection (witness paths included) *)
}

let static_precheck ?(log = fun _ -> ()) ~envs ~workloads (opts : P.options)
    : precheck list =
  List.concat_map
    (fun (name, source) ->
      List.filter_map
        (fun env ->
          let c = P.compile ~opts env source in
          match P.certify c with
          | Wario_certify.Certify.Certified _ -> None
          | Wario_certify.Certify.Rejected _ as v ->
              let report = P.certify_report c v in
              log
                (Printf.sprintf "%s × %s: static certifier REJECTED\n%s" name
                   (P.environment_name env) report);
              Some { p_workload = name; p_env = env; p_report = report })
        envs)
    workloads

(* Replay a reproducer: recompile exactly as recorded and re-run the
   oracle on the recorded cut schedule. *)
let replay (r : Repro.t) : (unit, string) result =
  match Repro.source_of_workload r.Repro.workload with
  | Error e -> Error e
  | Ok source -> (
      let c = P.compile ~opts:(Repro.options_of r) r.Repro.env source in
      let g = Oracle.golden c in
      match Oracle.golden_violations g with
      | _ :: _ as vs ->
          Error
            (Oracle.string_of_divergence (Oracle.War_violations vs)
            ^ " (in the golden run, before any injection)")
      | [] -> (
          match Oracle.check_schedule g c r.Repro.cuts with
          | Ok () -> Ok ()
          | Error d -> Error (Oracle.string_of_divergence d)))
