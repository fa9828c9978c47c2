(* Tests for cost-guided checkpoint placement: the profile round trip
   (pilot -> weights -> recompile), its failure modes (empty / stale
   profiles fall back to the static model instead of crashing), the
   measured guard (`Pgo.compile` never ships a binary executing more
   checkpoints than the greedy baseline on the pilot input), and the
   certifier-validated elision pass. *)

module P = Wario.Pipeline
module E = Wario_emulator
module A = Wario_analysis
module T = Wario_transforms.Checkpoint_inserter

let micro name = (Wario_workloads.Micro.find name).Wario_workloads.Micro.source

let bench name =
  (Wario_workloads.Programs.find name).Wario_workloads.Programs.source

let dyn image =
  (E.Emulator.run ~verify:false image).E.Emulator.checkpoints_total

(* -- label mangling ------------------------------------------------- *)

let test_mangle_agrees_with_isel () =
  Alcotest.(check string)
    "mangle scheme" "f$entry"
    (A.Costmodel.mangle "f" "entry");
  Alcotest.(check string)
    "agrees with Isel.mangle"
    (Wario_backend.Isel.mangle "f" "entry")
    (A.Costmodel.mangle "f" "entry");
  (* the pilot's per-block counts are keyed by the back end's mangled
     labels; if the schemes diverged, validation would report staleness *)
  let c = P.compile P.Wario (micro "rmw_loop") in
  let pilot = Wario.Pgo.collect c.P.image in
  let expected =
    List.concat_map
      (fun (mf : Wario_machine.Isa.mfunc) ->
        List.map
          (fun (b : Wario_machine.Isa.mblock) -> b.Wario_machine.Isa.mlabel)
          mf.Wario_machine.Isa.mblocks)
      c.P.mprog.Wario_machine.Isa.mfuncs
  in
  match
    A.Costmodel.validate_profile pilot.Wario.Pgo.profile
      ~expected_labels:expected
  with
  | Ok matched ->
      Alcotest.(check bool) "some labels matched" true (matched > 0)
  | Error e -> Alcotest.failf "pilot profile stale against own labels: %s" e

(* -- profile round trip --------------------------------------------- *)

let test_profile_applied () =
  let src = micro "sort" in
  let c = P.compile P.Wario src in
  let pilot = Wario.Pgo.collect c.P.image in
  let c2 =
    P.compile
      ~opts:{ P.default_options with P.block_profile = Some pilot.Wario.Pgo.profile }
      P.Wario src
  in
  (match c2.P.middle.P.profile_status with
  | P.Applied n -> Alcotest.(check bool) "labels matched" true (n > 0)
  | P.No_profile -> Alcotest.fail "profile ignored"
  | P.Fell_back r -> Alcotest.failf "profile rejected: %s" r);
  (* same program, same outputs *)
  let r1 = E.Emulator.run c.P.image and r2 = E.Emulator.run c2.P.image in
  Alcotest.(check (list int32)) "outputs agree" r1.E.Emulator.output
    r2.E.Emulator.output

let test_pgo_deterministic () =
  let src = micro "sort" in
  let one () = Wario.Pgo.compile_candidates P.Wario src in
  let a = one () and b = one () in
  Alcotest.(check bool)
    "pilot profiles equal" true
    (a.Wario.Pgo.pilot.Wario.Pgo.profile = b.Wario.Pgo.pilot.Wario.Pgo.profile);
  Alcotest.(check bool)
    "measured guard picks the same variant" true
    (a.Wario.Pgo.pilot.Wario.Pgo.selected = b.Wario.Pgo.pilot.Wario.Pgo.selected);
  Alcotest.(check bool)
    "selected images identical" true
    ((Wario.Pgo.compiled_of a a.Wario.Pgo.pilot.Wario.Pgo.selected).P.image
       .E.Image.code
    = (Wario.Pgo.compiled_of b b.Wario.Pgo.pilot.Wario.Pgo.selected).P.image
        .E.Image.code)

let test_empty_profile_falls_back () =
  let c =
    P.compile
      ~opts:{ P.default_options with P.block_profile = Some [] }
      P.Wario (micro "rmw_loop")
  in
  match c.P.middle.P.profile_status with
  | P.Fell_back _ -> ()
  | P.Applied n -> Alcotest.failf "empty profile applied (%d labels?)" n
  | P.No_profile -> Alcotest.fail "empty profile silently dropped"

let test_stale_profile_falls_back () =
  (* a pilot of a different program: labels cannot match *)
  let other = P.compile P.Wario (micro "byte_ops") in
  let stale = (Wario.Pgo.collect other.P.image).Wario.Pgo.profile in
  let c =
    P.compile
      ~opts:{ P.default_options with P.block_profile = Some stale }
      P.Wario (micro "sort")
  in
  (match c.P.middle.P.profile_status with
  | P.Fell_back _ -> ()
  | P.Applied n -> Alcotest.failf "stale profile applied (%d labels)" n
  | P.No_profile -> Alcotest.fail "stale profile silently dropped");
  (* the fallback is the static model: same placement as no profile *)
  let plain = P.compile P.Wario (micro "sort") in
  Alcotest.(check bool)
    "fell back to the static placement" true
    (c.P.image.E.Image.code = plain.P.image.E.Image.code)

(* -- measured guard ------------------------------------------------- *)

let test_guard_never_worse_than_greedy () =
  List.iter
    (fun name ->
      let src = micro name in
      let greedy =
        P.compile ~opts:{ P.default_options with P.placement = T.Greedy }
          P.Wario src
      in
      let best, pilot = Wario.Pgo.compile P.Wario src in
      Alcotest.(check bool)
        (name ^ ": guard measured every candidate")
        true
        (List.length pilot.Wario.Pgo.measured = 4);
      Alcotest.(check bool)
        (name ^ ": selected never executes more checkpoints than greedy")
        true
        (dyn best.P.image <= dyn greedy.P.image))
    [ "rmw_loop"; "sort"; "byte_ops" ]

(* -- certifier-validated elision ------------------------------------ *)

let test_elision_certified_and_no_worse () =
  let src = bench "sha" in
  let base = P.compile P.Wario src in
  let elided = P.compile ~opts:{ P.default_options with P.elide = true } P.Wario src in
  let stats =
    match elided.P.elision with
    | Some s -> s
    | None -> Alcotest.fail "elide=true produced no elision stats"
  in
  Alcotest.(check bool) "tried every candidate it counted" true
    (stats.Wario.Elide.tried >= stats.Wario.Elide.elided);
  (* the pass only ever removes checkpoints *)
  Alcotest.(check bool) "never adds checkpoints" true
    (dyn elided.P.image <= dyn base.P.image);
  (* and the result still certifies and computes the same thing *)
  (match P.certify elided with
  | Wario_certify.Certify.Certified _ -> ()
  | Wario_certify.Certify.Rejected _ ->
      Alcotest.fail "elided image rejected by the certifier");
  let r1 = E.Emulator.run base.P.image
  and r2 = E.Emulator.run elided.P.image in
  Alcotest.(check (list int32)) "outputs agree" r1.E.Emulator.output
    r2.E.Emulator.output;
  Alcotest.(check int32) "exit codes agree" r1.E.Emulator.exit_code
    r2.E.Emulator.exit_code;
  (* survives intermittent power too *)
  let r3 =
    E.Emulator.run ~supply:(E.Power.Periodic 100_000) elided.P.image
  in
  Alcotest.(check (list int32)) "intermittent output agrees"
    r1.E.Emulator.output r3.E.Emulator.output

let test_elide_off_by_default () =
  let c = P.compile P.Wario (micro "rmw_loop") in
  Alcotest.(check bool) "no elision stats without elide" true
    (c.P.elision = None)

(* -- interprocedural policy ----------------------------------------- *)

let inter_opts =
  {
    P.default_options with
    P.placement = T.Interprocedural;
    elide = true;
    motion = true;
  }

let test_inter_certified_same_results () =
  let src = bench "sha" in
  let base = P.compile P.Wario src in
  let c = P.compile ~opts:inter_opts P.Wario src in
  (match P.certify c with
  | Wario_certify.Certify.Certified _ -> ()
  | Wario_certify.Certify.Rejected _ ->
      Alcotest.fail "interprocedural build rejected by the certifier");
  let r1 = E.Emulator.run base.P.image and r2 = E.Emulator.run c.P.image in
  Alcotest.(check (list int32)) "outputs agree" r1.E.Emulator.output
    r2.E.Emulator.output;
  Alcotest.(check int32) "exit codes agree" r1.E.Emulator.exit_code
    r2.E.Emulator.exit_code;
  (* survives intermittent power: elided brackets and moved checkpoints
     must still give a crash-consistent image *)
  let r3 = E.Emulator.run ~supply:(E.Power.Periodic 100_000) c.P.image in
  Alcotest.(check (list int32)) "intermittent output agrees"
    r1.E.Emulator.output r3.E.Emulator.output;
  Alcotest.(check bool) "never executes more checkpoints" true
    (dyn c.P.image <= dyn base.P.image)

let test_inter_decisions_carry_verdicts () =
  let c = P.compile ~opts:inter_opts P.Wario (bench "crc") in
  (* every proposed motion move carries the certifier's verdict, and
     applied <=> certified *)
  (match c.P.motion with
  | None -> Alcotest.fail "motion=true produced no motion stats"
  | Some m ->
      List.iter
        (fun (mv : Wario.Motion.move) ->
          Alcotest.(check bool) "move has a verdict" true
            (String.length mv.Wario.Motion.mv_verdict > 0);
          Alcotest.(check bool) "applied iff certified" true
            (mv.Wario.Motion.mv_applied
            = (mv.Wario.Motion.mv_verdict = "certified")))
        m.Wario.Motion.moves);
  (* bracket elisions were audited (and only ever removed) *)
  (match c.P.elision with
  | None -> Alcotest.fail "elide=true produced no elision stats"
  | Some e ->
      Alcotest.(check bool) "brackets audited" true
        (e.Wario.Elide.boundary_tried > 0);
      Alcotest.(check bool) "kept at most what it tried" true
        (e.Wario.Elide.boundary_elided <= e.Wario.Elide.boundary_tried));
  (* the --explain payload: per-checkpoint rationale and call-graph
     frequencies are populated under the interprocedural policy *)
  Alcotest.(check bool) "placement rationale non-empty" true
    (c.P.middle.P.placements <> []);
  List.iter
    (fun (p : T.placement_info) ->
      Alcotest.(check bool) "placement weight positive" true
        (p.T.pi_weight > 0.))
    c.P.middle.P.placements;
  Alcotest.(check bool) "function frequencies present" true
    (c.P.middle.P.func_freqs <> [])

(* -- placement rationale: pi_wars ------------------------------------ *)

(* Three WARs whose candidate sets meet in one point.  After the generic
   optimizer the body is: 0 load a; 1 load c; 2 load b; 3 store a;
   4 store b; 5 store c.  The candidate lists are a = [3; 1; 2; 3]
   (the point before the store is listed twice), b = [4; 3; 4] and
   c = [5; 2; 3; 4; 5]; point 3 is the only one in all three, so every
   policy places one checkpoint there.  It covers three WAR sets, not
   four: a set that lists a point twice still counts once. *)
let test_pi_wars_counts_sets_once () =
  let src =
    {|
int a; int b; int c;
int main(void) {
  int x = a; int z = c; int y = b;
  a = y; b = x; c = z;
  return 0; }
|}
  in
  List.iter
    (fun placement ->
      let prog = Wario_minic.Minic.compile src in
      Wario_transforms.Opt_pipeline.run prog;
      let st = T.run ~placement prog in
      Alcotest.(check int) "three WARs" 3 st.T.wars;
      Alcotest.(check (list (pair (pair string int) int)))
        "one checkpoint before store a, covering three WAR sets"
        [ (("entry", 3), 3) ]
        (List.map
           (fun (p : T.placement_info) ->
             ((p.T.pi_block, p.T.pi_index), p.T.pi_wars))
           st.T.placements))
    [ T.Greedy; T.Cost_guided ]

(* -- the expander audition ------------------------------------------ *)

let count metrics name =
  match Wario_obs.Metrics.find metrics name with
  | Some (Wario_obs.Metrics.Count n) -> n
  | _ -> Alcotest.failf "metric %s not recorded" name

(* call sites of [callee] left in [caller]'s body *)
let call_sites (prog : Wario_ir.Ir.program) caller callee =
  match Wario_ir.Ir.find_func_opt prog caller with
  | None -> Alcotest.failf "function %s missing" caller
  | Some f ->
      List.fold_left
        (fun n (b : Wario_ir.Ir.block) ->
          List.fold_left
            (fun n -> function
              | Wario_ir.Ir.Call (_, c, _) when String.equal c callee -> n + 1
              | _ -> n)
            n b.Wario_ir.Ir.insns)
        0 f.Wario_ir.Ir.blocks

let inlined (c : P.compiled) =
  match c.P.middle.P.expander with
  | Some s -> s.Wario_transforms.Expander.inlined
  | None -> Alcotest.fail "inter compile ran no audition"

(* Pins the audition's decisions to the BENCH_6 rows: trials audition on
   the un-elided image, and these must not move the accepted sets. *)
let test_inter_pinned_decisions () =
  let c = P.compile ~opts:inter_opts P.Wario (bench "crc") in
  Alcotest.(check int) "crc inlines one edge" 1 (inlined c);
  Alcotest.(check int)
    "crc: mc_getc -> io_refill was the inlined call" 0
    (call_sites c.P.ir "mc_getc" "io_refill");
  Alcotest.(check int)
    "crc: mc_getc calls io_refill when not expanded" 1
    (call_sites
       (P.compile
          ~opts:{ inter_opts with P.expander_size_limit = 0 }
          P.Wario (bench "crc"))
         .P.ir "mc_getc" "io_refill");
  Alcotest.(check int) "crc dynamic checkpoints" 28171 (dyn c.P.image);
  List.iter
    (fun (name, ckpts) ->
      let c = P.compile ~opts:inter_opts P.Wario (bench name) in
      Alcotest.(check int) (name ^ " inlines nothing") 0 (inlined c);
      Alcotest.(check int) (name ^ " dynamic checkpoints") ckpts
        (dyn c.P.image))
    [ ("sha", 4353); ("dijkstra", 3581) ]

(* crc's 8 candidates include three call sites of crc32_stream -> mc_getc,
   which all yield the same trial program; pass 1 accepts mc_getc ->
   io_refill and pass 2 re-auditions the other 7 without accepting any.
   cost_of therefore runs 1 (base) + 8 + 7 = 16 times, and 6 of those
   selections were already compiled. *)
let test_audition_counters () =
  let metrics = Wario_obs.Metrics.create () in
  let spans = Wario_obs.Span.create () in
  let _ = P.compile ~metrics ~spans ~opts:inter_opts P.Wario (bench "crc") in
  let trials = count metrics "middle.expander.trials"
  and memo_hits = count metrics "middle.expander.memo_hits"
  and cands = count metrics "middle.expander.candidates" in
  Alcotest.(check int) "candidates" 8 cands;
  Alcotest.(check int) "memo hits" 6 memo_hits;
  Alcotest.(check int) "every cost_of call is a trial or a memo hit"
    (1 + cands + (cands - 1))
    (trials + memo_hits);
  Alcotest.(check int) "no unrunnable trial" 0
    (count metrics "middle.expander.trial_unrunnable");
  (* the same counts ride on the one audition span *)
  let rec find (s : Wario_obs.Span.span) =
    if s.Wario_obs.Span.sp_name = "middle.expander_trials" then Some s
    else List.find_map find s.Wario_obs.Span.sp_children
  in
  match List.find_map find (Wario_obs.Span.roots spans) with
  | None -> Alcotest.fail "no middle.expander_trials span"
  | Some s ->
      let ctr k = List.assoc_opt k s.Wario_obs.Span.sp_counters in
      Alcotest.(check (option int)) "span trials" (Some trials) (ctr "trials");
      Alcotest.(check (option int))
        "span memo_hits" (Some memo_hits) (ctr "memo_hits");
      Alcotest.(check bool)
        "no per-trial child span" true
        (s.Wario_obs.Span.sp_children = [])

(* A program whose every trial runs out of fuel: the audition rejects the
   trials as unrunnable (counted), and the compile keeps the un-expanded
   program instead of failing. *)
let test_unrunnable_trials_keep_program () =
  let src =
    {|
int g;
int bump(int d) { g = g + d; return g; }
int main(void) { while (1) { bump(1); } return 0; }
|}
  in
  let metrics = Wario_obs.Metrics.create () in
  let c = P.compile ~metrics ~opts:inter_opts P.Wario src in
  Alcotest.(check bool) "bump is a candidate" true
    (count metrics "middle.expander.candidates" > 0);
  Alcotest.(check int) "nothing inlined" 0 (inlined c);
  let unexpanded =
    P.compile ~opts:{ inter_opts with P.expander_size_limit = 0 } P.Wario src
  in
  Alcotest.(check bool) "image of the un-expanded program" true
    (Marshal.to_string c.P.image [] = Marshal.to_string unexpanded.P.image []);
  Alcotest.(check int) "the base trial was unrunnable" 1
    (count metrics "middle.expander.trial_unrunnable")

let suite =
  [
    Alcotest.test_case "mangle agrees with isel" `Quick
      test_mangle_agrees_with_isel;
    Alcotest.test_case "profile round trip: applied" `Quick
      test_profile_applied;
    Alcotest.test_case "pgo: deterministic" `Slow test_pgo_deterministic;
    Alcotest.test_case "empty profile falls back" `Quick
      test_empty_profile_falls_back;
    Alcotest.test_case "stale profile falls back" `Quick
      test_stale_profile_falls_back;
    Alcotest.test_case "measured guard: never worse than greedy" `Slow
      test_guard_never_worse_than_greedy;
    Alcotest.test_case "elision: certified, no worse, same results" `Slow
      test_elision_certified_and_no_worse;
    Alcotest.test_case "elision: off by default" `Quick
      test_elide_off_by_default;
    Alcotest.test_case "inter: certified, same results, never worse" `Slow
      test_inter_certified_same_results;
    Alcotest.test_case "inter: decisions carry certifier verdicts" `Slow
      test_inter_decisions_carry_verdicts;
    Alcotest.test_case "placement: pi_wars counts each WAR set once" `Quick
      test_pi_wars_counts_sets_once;
    Alcotest.test_case "inter: pinned audition decisions" `Slow
      test_inter_pinned_decisions;
    Alcotest.test_case "inter: audition trial and memo counters" `Slow
      test_audition_counters;
    Alcotest.test_case "inter: unrunnable trials keep the program" `Slow
      test_unrunnable_trials_keep_program;
  ]
