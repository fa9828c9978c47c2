(* Tests for the static idempotence certifier (lib/certify).

   Acceptance: every benchmark certifies in every instrumented environment,
   and the [drop_middle_ckpt] sabotage hook yields a rejection whose path
   witness names the unprotected load/store pair.  A qcheck property checks
   the certifier agrees with the dynamic WAR verifier on random programs.
   Both the benchmark sweep and the property also check that the
   certifier's abstract states are a fixpoint ({!C.fixpoint_violation}). *)

module P = Wario.Pipeline
module E = Wario_emulator
module C = Wario_certify.Certify
module W = Wario_workloads

let envs = Wario_verify.Harness.instrumented_environments

(* The certifier's abstract states must be a post-fixpoint: no edge may
   still change its successor's state.  This holds whatever order the
   worklist visited pcs in, so it checks the worklist without a second
   one to compare against. *)
let assert_fixpoint what image =
  match C.fixpoint_violation image with
  | None -> ()
  | Some (pc, q) ->
      Alcotest.failf "%s: certifier state not a fixpoint on edge %d -> %d" what
        pc q

let test_benchmarks_certified () =
  List.iter
    (fun (b : W.Programs.benchmark) ->
      List.iter
        (fun env ->
          let c = P.compile env b.W.Programs.source in
          assert_fixpoint
            (Printf.sprintf "%s × %s" b.W.Programs.name
               (P.environment_name env))
            c.P.image;
          match P.certify c with
          | C.Certified st ->
              Alcotest.(check bool)
                (Printf.sprintf "%s × %s: pairs judged" b.W.Programs.name
                   (P.environment_name env))
                true (st.C.s_pairs >= 0)
          | C.Rejected _ as v ->
              Alcotest.failf "%s × %s rejected:\n%s" b.W.Programs.name
                (P.environment_name env) (P.certify_report c v))
        envs)
    W.Programs.all

let test_micros_certified_wario () =
  List.iter
    (fun (m : W.Micro.t) ->
      let c = P.compile P.Wario m.W.Micro.source in
      match P.certify c with
      | C.Certified _ -> ()
      | C.Rejected _ as v ->
          Alcotest.failf "%s × wario rejected:\n%s" m.W.Micro.name
            (P.certify_report c v))
    W.Micro.tiny

(* The negative test the sabotage hook exists for: deleting a middle-end
   checkpoint from crc reopens the WAR it covered, and the certifier must
   name the unprotected load/store pair with a barrier-free pc path. *)
let test_sabotaged_rejected () =
  let opts = { P.default_options with P.drop_middle_ckpt = Some 0 } in
  let c = P.compile ~opts P.Wario W.Programs.crc.W.Programs.source in
  match P.certify c with
  | C.Certified _ -> Alcotest.fail "sabotaged build certified"
  | C.Rejected (reasons, _) as v -> (
      let witnesses =
        List.filter_map
          (function C.War_pair w -> Some w | C.Obligation_failed _ -> None)
          reasons
      in
      match witnesses with
      | [] -> Alcotest.fail "rejected without a WAR pair witness"
      | w :: _ ->
          Alcotest.(check bool) "path is non-empty" true (w.C.w_path <> []);
          Alcotest.(check int) "path starts at the load" w.C.w_load_pc
            (List.hd w.C.w_path);
          Alcotest.(check int) "path ends at the store" w.C.w_store_pc
            (List.nth w.C.w_path (List.length w.C.w_path - 1));
          Alcotest.(check bool) "witness names both functions" true
            (w.C.w_load_func <> "" && w.C.w_store_func <> "");
          (* the rendered report must carry the witness to the user *)
          let report = P.certify_report c v in
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            nn > 0 && go 0
          in
          Alcotest.(check bool) "report names the load's function" true
            (contains report w.C.w_load_func))

(* Certifier vs dynamic WAR verifier on random MiniC programs, across all
   instrumented environments and with the sabotage hook armed:

   - a healthy instrumented build must certify (the domain re-proves every
     disjointness fact the middle end used);
   - a certificate is sound: the dynamic verifier must stay silent on a
     certified image (healthy or sabotaged — dropping a checkpoint can be a
     no-op or covered elsewhere, in which case certifying it is correct). *)
let prop_certifier_agrees_with_dynamic =
  QCheck.Test.make
    ~name:"random programs: certifier agrees with dynamic WAR verifier"
    ~count:6 Test_props.arbitrary_program
    (fun src ->
      List.for_all
        (fun env ->
          List.for_all
            (fun drop ->
              let opts = { P.default_options with P.drop_middle_ckpt = drop } in
              let c = P.compile ~opts env src in
              (match C.fixpoint_violation c.P.image with
              | None -> ()
              | Some (pc, q) ->
                  QCheck.Test.fail_reportf
                    "certifier state not a fixpoint on edge %d -> %d [%s]" pc q
                    (P.environment_name env));
              let r = E.Emulator.run ~verify:true c.P.image in
              let dynamic_clean = r.E.Emulator.violations = [] in
              match P.certify c with
              | C.Certified _ ->
                  dynamic_clean
                  || QCheck.Test.fail_reportf
                       "certified but %d dynamic violation(s) [%s drop=%s]"
                       (List.length r.E.Emulator.violations)
                       (P.environment_name env)
                       (match drop with
                       | None -> "-"
                       | Some k -> string_of_int k)
              | C.Rejected _ as v ->
                  if drop = None then
                    QCheck.Test.fail_reportf
                      "healthy build rejected [%s]:\n%s"
                      (P.environment_name env) (P.certify_report c v)
                  else true (* sabotage rejection: expected *))
            (if env = P.Wario then [ None; Some 0 ] else [ None ]))
        envs)

let suite =
  [
    Alcotest.test_case "benchmarks: all instrumented envs certified" `Slow
      test_benchmarks_certified;
    Alcotest.test_case "micros: wario certified" `Quick
      test_micros_certified_wario;
    Alcotest.test_case "sabotage: drop-ckpt rejected with witness" `Quick
      test_sabotaged_rejected;
  ]
  @ List.map Test_props.to_alcotest [ prop_certifier_agrees_with_dynamic ]
