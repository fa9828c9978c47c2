(* Emulator tests: instruction semantics on hand-built machine programs,
   checkpoint commit/restore, intermittent power (including power failures
   injected at every phase — "crash-everywhere"), interrupt injection with
   a negative control, power supplies and synthetic traces. *)

module I = Wario_machine.Isa
module E = Wario_emulator
module P = Wario.Pipeline

(* Build a one-function machine program named main. *)
let mprog_of code : I.mprog =
  {
    I.mfuncs =
      [ { I.mname = "main"; frame_words = 0; mframe = None;
          mblocks = [ { I.mlabel = "main"; mcode = code } ] } ];
    mdata = [];
  }

let run_code ?(irq_period = 0) ?supply code =
  let img = E.Image.link (mprog_of code) in
  match supply with
  | Some s -> E.Emulator.run ~supply:s ~irq_period img
  | None -> E.Emulator.run ~irq_period img

let print_r0 = [ I.Svc 0 ]

let test_alu () =
  let r =
    run_code
      ([
         I.Mov (0, I.I 7l);
         I.Alu (I.ADD, 0, 0, I.I 5l);      (* 12 *)
         I.Alu (I.MUL, 0, 0, I.I 3l);      (* 36 *)
         I.Alu (I.SUB, 0, 0, I.I 1l);      (* 35 *)
         I.Alu (I.SDIV, 0, 0, I.I 4l);     (* 8 *)
         I.Alu (I.LSL, 0, 0, I.I 4l);      (* 128 *)
         I.Alu (I.EOR, 0, 0, I.I 0xFFl);   (* 127 *)
       ]
      @ print_r0
      @ [ I.Svc 1 ])
  in
  Alcotest.(check (list int32)) "alu chain" [ 127l ] r.E.Emulator.output

let test_sdiv_by_zero_is_zero () =
  let r =
    run_code
      [ I.Mov (0, I.I 5l); I.Mov (1, I.I 0l); I.Alu (I.SDIV, 0, 0, I.R 1);
        I.Svc 0; I.Svc 1 ]
  in
  (* Cortex-M semantics with DIV_0_TRP clear: quotient 0 *)
  Alcotest.(check (list int32)) "sdiv/0" [ 0l ] r.E.Emulator.output

let test_flags_and_conditions () =
  (* compute (-5 < 3 signed) and (0xFFFFFFFB < 3 unsigned) *)
  let r =
    run_code
      [
        I.Movw32 (1, -5l);
        I.Mov (0, I.I 0l);
        I.Cmp (1, I.I 3l);
        I.Movc (I.LT, 0, I.I 1l);
        I.Svc 0;
        I.Mov (0, I.I 0l);
        I.Cmp (1, I.I 3l);
        I.Movc (I.LO, 0, I.I 1l); (* unsigned: huge, not lower *)
        I.Svc 0;
        I.Svc 1;
      ]
  in
  Alcotest.(check (list int32)) "signed vs unsigned" [ 1l; 0l ] r.E.Emulator.output

let test_memory_widths () =
  let r =
    run_code
      [
        I.Movw32 (1, 0x1000l);
        I.Movw32 (0, 0x12345678l);
        I.Str (I.W32, 0, 1, 0l);
        I.Ldr (I.W8, 2, 1, 0l);   (* little endian: 0x78 *)
        I.Mov (0, I.R 2);
        I.Svc 0;
        I.Ldr (I.S8, 2, 1, 3l);   (* 0x12 sign-extended: 18 *)
        I.Mov (0, I.R 2);
        I.Svc 0;
        I.Movw32 (0, 0xFFFFl);
        I.Str (I.W16, 0, 1, 4l);
        I.Ldr (I.S16, 0, 1, 4l);
        I.Svc 0;
        I.Svc 1;
      ]
  in
  Alcotest.(check (list int32)) "widths" [ 0x78l; 0x12l; -1l ] r.E.Emulator.output

let test_push_and_calls () =
  let prog : I.mprog =
    {
      I.mfuncs =
        [
          {
            I.mname = "main";
            frame_words = 0; mframe = None;
            mblocks =
              [
                {
                  I.mlabel = "main";
                  mcode =
                    [
                      I.Ckpt (I.Function_entry, 0);
                      I.Push [ I.lr ];
                      I.Mov (0, I.I 20l);
                      I.Bl "double_it";
                      I.Svc 0;
                      I.Ldr (I.W32, I.lr, I.sp, 0l);
                      I.Ckpt (I.Function_exit, 1 lsl I.lr);
                      I.Alu (I.ADD, I.sp, I.sp, I.I 4l);
                      I.Svc 1;
                    ];
                };
              ];
          };
          {
            I.mname = "double_it";
            frame_words = 0; mframe = None;
            mblocks =
              [
                {
                  I.mlabel = "double_it";
                  mcode = [ I.Alu (I.ADD, 0, 0, I.R 0); I.Bx_lr ];
                };
              ];
          };
        ];
      mdata = [];
    }
  in
  let img = E.Image.link prog in
  let r = E.Emulator.run img in
  Alcotest.(check (list int32)) "call result" [ 40l ] r.E.Emulator.output;
  Alcotest.(check int) "no violations" 0 (List.length r.E.Emulator.violations)

let test_memory_fault () =
  match run_code [ I.Mov (1, I.I 0l); I.Ldr (I.W32, 0, 1, 0l); I.Svc 1 ] with
  | exception E.Emulator.Emu_error _ -> ()
  | _ -> Alcotest.fail "expected a memory fault on the null page"

let test_link_errors () =
  (match E.Image.link (mprog_of [ I.B "nowhere" ]) with
  | exception E.Image.Link_error _ -> ()
  | _ -> Alcotest.fail "undefined label accepted");
  let no_main : I.mprog =
    { I.mfuncs = [ { I.mname = "f"; frame_words = 0; mframe = None;
                     mblocks = [ { I.mlabel = "f"; mcode = [ I.Bx_lr ] } ] } ];
      mdata = [] }
  in
  match E.Image.link no_main with
  | exception E.Image.Link_error _ -> ()
  | _ -> Alcotest.fail "missing main accepted"

let test_data_init () =
  let prog : I.mprog =
    {
      I.mfuncs =
        [
          { I.mname = "main"; frame_words = 0; mframe = None;
            mblocks =
              [ { I.mlabel = "main";
                  mcode =
                    [ I.AdrData (1, "tab", 4l); I.Ldr (I.W32, 0, 1, 0l);
                      I.Svc 0; I.Svc 1 ] } ] };
        ];
      mdata =
        [ { I.dname = "tab"; dsize = 12; dalign = 4;
            dinit = [ (0, 4, 10l); (4, 4, 20l); (8, 4, 30l) ] } ];
    }
  in
  let r = E.Emulator.run (E.Image.link prog) in
  Alcotest.(check (list int32)) "initialised data" [ 20l ] r.E.Emulator.output

(* ------------------------------------------------------------------ *)
(* Checkpointing and power                                              *)
(* ------------------------------------------------------------------ *)

let counting_loop_src =
  {|unsigned total = 17u;
    int main(void){
      int i;
      /* [total] is initialised by the data section and read before it is
         written: its update is a genuine WAR in the very first region */
      for (i = 1; i <= 2000; i++) total = total + (unsigned)i;
      print_int((int)total);
      return 0; }|}

let test_verifier_catches_unprotected () =
  (* the uninstrumented build must trip the verifier on a workload whose
     first access to a data-section location is a read *)
  let c = P.compile P.Plain counting_loop_src in
  let r = E.Emulator.run c.P.image in
  Alcotest.(check bool) "violations detected" true
    (List.length r.E.Emulator.violations > 0)

let test_continuous_equals_intermittent_output () =
  let c = P.compile P.Wario counting_loop_src in
  let cont = E.Emulator.run c.P.image in
  List.iter
    (fun on_cycles ->
      let r = E.Emulator.run ~supply:(E.Power.Periodic on_cycles) c.P.image in
      Alcotest.(check (list int32))
        (Printf.sprintf "output @%d" on_cycles)
        cont.E.Emulator.output r.E.Emulator.output;
      Alcotest.(check int)
        (Printf.sprintf "violations @%d" on_cycles)
        0
        (List.length r.E.Emulator.violations);
      Alcotest.(check bool)
        (Printf.sprintf "failures happened @%d" on_cycles)
        true
        (r.E.Emulator.power_failures > 0);
      Alcotest.(check bool)
        (Printf.sprintf "re-execution costs cycles @%d" on_cycles)
        true
        (r.E.Emulator.cycles >= cont.E.Emulator.cycles))
    [ 600; 1000; 5000 ]

let test_crash_everywhere () =
  (* sweep many on-periods including odd phases: output must always match,
     and the verifier must stay silent *)
  let m = Wario_workloads.Micro.find "byte_ops" in
  List.iter
    (fun env ->
      let c = P.compile env m.source in
      let cont = E.Emulator.run c.P.image in
      (* the budget must cover boot + restore + the largest region, or the
         device can legitimately never progress (see the dedicated
         no-forward-progress test) *)
      let max_region = List.fold_left max 0 cont.E.Emulator.region_sizes in
      let floor = 400 + 64 + max_region in
      let budget = ref (floor + 13) in
      while !budget < floor + 1100 do
        let r = E.Emulator.run ~supply:(E.Power.Periodic !budget) c.P.image in
        Alcotest.(check (list int32))
          (Printf.sprintf "%s @%d output" (P.environment_name env) !budget)
          cont.E.Emulator.output r.E.Emulator.output;
        Alcotest.(check int)
          (Printf.sprintf "%s @%d violations" (P.environment_name env) !budget)
          0
          (List.length r.E.Emulator.violations);
        budget := !budget + 89
      done)
    [ P.Ratchet; P.Wario ]

let test_no_forward_progress_detected () =
  let c = P.compile P.Wario counting_loop_src in
  match E.Emulator.run ~supply:(E.Power.Periodic 420) c.P.image with
  | exception E.Emulator.No_forward_progress supply ->
      (* the exception names the offending supply *)
      Alcotest.(check string) "carries supply description" "periodic(420)"
        supply
  | _ -> Alcotest.fail "a 420-cycle budget cannot make progress (boot is 400)"

let test_checkpoint_double_buffering () =
  (* power failing mid-run must always resume from a consistent checkpoint:
     covered by output equality; additionally the boots count exceeds the
     failure count by one (initial boot) *)
  let c = P.compile P.Wario counting_loop_src in
  let r = E.Emulator.run ~supply:(E.Power.Periodic 900) c.P.image in
  Alcotest.(check int) "boots = failures + 1" (r.E.Emulator.power_failures + 1)
    r.E.Emulator.boots

(* ------------------------------------------------------------------ *)
(* Interrupts                                                           *)
(* ------------------------------------------------------------------ *)

let test_interrupts_safe () =
  (* protected builds survive adversarial interrupt periods *)
  let m = Wario_workloads.Micro.find "fib" in
  List.iter
    (fun env ->
      let c = P.compile env m.source in
      List.iter
        (fun period ->
          let r = E.Emulator.run ~irq_period:period c.P.image in
          Alcotest.(check (list int32))
            (Printf.sprintf "%s irq=%d output" (P.environment_name env) period)
            m.expected r.E.Emulator.output;
          Alcotest.(check int)
            (Printf.sprintf "%s irq=%d violations" (P.environment_name env) period)
            0
            (List.length r.E.Emulator.violations);
          Alcotest.(check bool) "irqs fired" true (r.E.Emulator.irqs_taken > 0))
        [ 37; 101; 503 ])
    [ P.Ratchet; P.Epilog_opt; P.Wario ]

let test_interrupt_unprotected_violates () =
  (* negative control: an unprotected (plain) build with stack usage and
     interrupts enabled must trip the verifier — the pop hazard is real *)
  let m = Wario_workloads.Micro.find "fib" in
  let c = P.compile P.Plain m.source in
  let hit = ref false in
  List.iter
    (fun period ->
      let r = E.Emulator.run ~irq_period:period c.P.image in
      if r.E.Emulator.violations <> [] then hit := true)
    [ 7; 11; 13; 17; 23; 31 ];
  Alcotest.(check bool) "ISR pushes violate the popped frame" true !hit

let test_cpsid_defers () =
  (* with interrupts disabled the whole run, none are taken *)
  let r =
    run_code ~irq_period:50
      ([ I.Cpsid; I.Mov (1, I.I 0l) ]
      @ List.concat (List.init 40 (fun _ -> [ I.Alu (I.ADD, 1, 1, I.I 1l) ]))
      @ [ I.Mov (0, I.R 1); I.Svc 0; I.Svc 1 ])
  in
  Alcotest.(check (list int32)) "sum" [ 40l ] r.E.Emulator.output;
  Alcotest.(check int) "no irq inside cpsid window" 0 r.E.Emulator.irqs_taken

(* ------------------------------------------------------------------ *)
(* Power supplies and traces                                            *)
(* ------------------------------------------------------------------ *)

let test_power_models () =
  let p = E.Power.create (E.Power.Periodic 123) in
  Alcotest.(check (option int)) "periodic" (Some 123) (E.Power.next_budget p);
  Alcotest.(check (option int)) "periodic again" (Some 123) (E.Power.next_budget p);
  let t = E.Power.create (E.Power.Trace [| 5; 6 |]) in
  Alcotest.(check (option int)) "trace 1" (Some 5) (E.Power.next_budget t);
  Alcotest.(check (option int)) "trace 2" (Some 6) (E.Power.next_budget t);
  Alcotest.(check (option int)) "trace wraps" (Some 5) (E.Power.next_budget t);
  let c = E.Power.create E.Power.Continuous in
  Alcotest.(check (option int)) "continuous" None (E.Power.next_budget c);
  let s = E.Power.create (E.Power.Schedule [| 9; 4 |]) in
  Alcotest.(check (option int)) "schedule 1" (Some 9) (E.Power.next_budget s);
  Alcotest.(check (option int)) "schedule 2" (Some 4) (E.Power.next_budget s);
  Alcotest.(check (option int)) "schedule then continuous" None
    (E.Power.next_budget s)

let test_power_degenerate_supplies () =
  Alcotest.check_raises "zero on-period"
    (Invalid_argument "Power.create: non-positive on-period 0") (fun () ->
      ignore (E.Power.create (E.Power.Periodic 0)));
  Alcotest.check_raises "negative on-period"
    (Invalid_argument "Power.create: non-positive on-period -7") (fun () ->
      ignore (E.Power.create (E.Power.Periodic (-7))));
  Alcotest.check_raises "empty trace"
    (Invalid_argument "Power.create: empty trace") (fun () ->
      ignore (E.Power.create (E.Power.Trace [||])));
  Alcotest.check_raises "non-positive trace entry"
    (Invalid_argument "Power.create: non-positive trace on-duration 0")
    (fun () -> ignore (E.Power.create (E.Power.Trace [| 5; 0; 6 |])));
  Alcotest.check_raises "non-positive scheduled cut"
    (Invalid_argument "Power.create: non-positive scheduled on-duration -1")
    (fun () -> ignore (E.Power.create (E.Power.Schedule [| 3; -1 |])));
  (* an empty schedule is legal: no cuts, continuous throughout *)
  let p = E.Power.create (E.Power.Schedule [||]) in
  Alcotest.(check (option int)) "empty schedule = continuous" None
    (E.Power.next_budget p)

let test_traces_deterministic () =
  let a = E.Traces.rf_trace () and b = E.Traces.rf_trace () in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  let c = E.Traces.rf_trace ~seed:1 () in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  (* regimes: the rf trace is much burstier than solar *)
  let mean_rf = E.Traces.mean a in
  let mean_solar = E.Traces.mean (E.Traces.solar_trace ()) in
  Alcotest.(check bool)
    (Printf.sprintf "solar mean (%d) >> rf mean (%d)" mean_solar mean_rf)
    true
    (mean_solar > 3 * mean_rf);
  Alcotest.(check bool) "all positive" true (Array.for_all (fun x -> x > 0) a)

let test_trace_run () =
  let c = P.compile P.Wario counting_loop_src in
  let cont = E.Emulator.run c.P.image in
  let r =
    E.Emulator.run
      ~supply:(E.Power.Trace (E.Traces.rf_trace ~n:128 ()))
      c.P.image
  in
  Alcotest.(check (list int32)) "trace output" cont.E.Emulator.output
    r.E.Emulator.output

let test_region_stats () =
  let c = P.compile P.Ratchet counting_loop_src in
  let r = E.Emulator.run c.P.image in
  let summary = Wario.Report.summarize_regions r.E.Emulator.region_sizes in
  Alcotest.(check bool) "has regions" true (summary.rs_count > 10);
  Alcotest.(check bool) "median <= mean here" true
    (float_of_int summary.rs_median <= summary.rs_mean +. 1.);
  Alcotest.(check bool) "max >= median" true (summary.rs_max >= summary.rs_median)

(* --- macro-stepping and the block engine ---------------------------- *)

let drive_step st =
  let rec go () =
    match E.Emulator.step st with E.Emulator.Halted -> () | _ -> go ()
  in
  go ();
  E.Emulator.result st

let drive_batch st n =
  let rec go () =
    match E.Emulator.run_batch st n with E.Emulator.Halted -> () | _ -> go ()
  in
  go ();
  E.Emulator.result st

(* [run_batch] on a block-engine-eligible instance must reproduce per-[step]
   execution exactly — result record and non-volatile digest — both on
   continuous power and across reboots under a tight periodic supply. *)
let test_run_batch_matches_step () =
  let m = Wario_workloads.Micro.find "rmw_loop" in
  let c = P.compile P.Wario m.Wario_workloads.Micro.source in
  let cont = E.Emulator.run ~verify:false c.P.image in
  let budget =
    400 + 64 + List.fold_left max 0 cont.E.Emulator.region_sizes + 97
  in
  List.iter
    (fun supply ->
      let a = E.Emulator.create ~verify:false ~supply c.P.image in
      let b = E.Emulator.create ~verify:false ~supply c.P.image in
      let ra = drive_step a in
      let rb = drive_batch b 1024 in
      Alcotest.(check bool)
        (Printf.sprintf "batch = step [%s]" (E.Power.describe supply))
        true (ra = rb);
      Alcotest.(check int64)
        (Printf.sprintf "nv digest agrees [%s]" (E.Power.describe supply))
        (E.Emulator.nv_digest a) (E.Emulator.nv_digest b))
    [ E.Power.Continuous; E.Power.Periodic budget ]

let test_run_batch_rejects_nonpositive () =
  let m = Wario_workloads.Micro.find "arith" in
  let c = P.compile P.Wario m.Wario_workloads.Micro.source in
  let st = E.Emulator.create ~verify:false c.P.image in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "n=%d rejected" n)
        (Invalid_argument "Emulator.run_batch: non-positive batch size")
        (fun () -> ignore (E.Emulator.run_batch st n)))
    [ 0; -1 ]

(* --- block engine: directed edge cases ------------------------------- *)

let drive_engine engine st =
  let rec go () =
    match E.Emulator.run_batch ~engine st 4096 with
    | E.Emulator.Halted -> ()
    | _ -> go ()
  in
  go ();
  E.Emulator.result st

let fallback_steps st = (E.Emulator.engine_stats st).E.Emulator.es_fallback_steps

(* A snapshot taken while the pc is parked {e inside} a basic block (after k
   single steps) must resume correctly on the block engine in both copies:
   the engine may not assume dispatch ever starts at a leader.  Swept over
   k so the clone point crosses many in-block offsets; at least one resume
   must go through the reference-step fallback, or the sweep proves
   nothing about it. *)
let test_block_clone_mid_block () =
  let m = Wario_workloads.Micro.find "rmw_loop" in
  let c = P.compile P.Wario m.Wario_workloads.Micro.source in
  let want = E.Emulator.run ~verify:false c.P.image in
  let fallbacks = ref 0 in
  List.iter
    (fun k ->
      let st = E.Emulator.create ~verify:false c.P.image in
      for _ = 1 to k do ignore (E.Emulator.step st) done;
      let snap = E.Emulator.clone st in
      let r_orig = drive_engine E.Emulator.Block st in
      let r_snap = drive_engine E.Emulator.Block snap in
      fallbacks := !fallbacks + fallback_steps st + fallback_steps snap;
      Alcotest.(check bool)
        (Printf.sprintf "original resumed mid-block at k=%d" k)
        true (r_orig = want);
      Alcotest.(check bool)
        (Printf.sprintf "clone resumed mid-block at k=%d" k)
        true (r_snap = want);
      Alcotest.(check int64)
        (Printf.sprintf "clone digest at k=%d" k)
        (E.Emulator.nv_digest st) (E.Emulator.nv_digest snap))
    [ 1; 2; 3; 5; 7; 11; 17; 23; 31; 41 ];
  Alcotest.(check bool) "some mid-block resume took the fallback" true
    (!fallbacks > 0)

(* Interrupts make the block engine ineligible: a Block request must fall
   back to the instrumented reference path — never dispatching a fused
   closure — and reproduce the reference run exactly, interrupts included. *)
let test_block_irq_fallback () =
  let m = Wario_workloads.Micro.find "fib" in
  let c = P.compile P.Wario m.Wario_workloads.Micro.source in
  let want = E.Emulator.run ~verify:false ~irq_period:37 c.P.image in
  let st = E.Emulator.create ~verify:false ~irq_period:37 c.P.image in
  let got = drive_engine E.Emulator.Block st in
  Alcotest.(check bool) "irq run: block = reference" true (got = want);
  Alcotest.(check bool) "irqs actually fired" true
    (got.E.Emulator.irqs_taken > 0);
  Alcotest.(check int) "no fused closure dispatched under irqs" 0
    (E.Emulator.engine_stats st).E.Emulator.es_dispatches

(* Power edges across block geometry: sweeping the periodic budget one
   cycle at a time walks the failure point across every in-block offset —
   including the {e last} instruction of a block, where the hoisted
   power check and the block-boundary fallback meet.  Every budget must
   be byte-identical to the reference engine, result record (waste and
   failure_sites included) and non-volatile digest alike, and some budget
   must exercise the reference-step fallback at a power edge. *)
let test_block_power_edge_sweep () =
  let m = Wario_workloads.Micro.find "rmw_loop" in
  let c = P.compile P.Wario m.Wario_workloads.Micro.source in
  let cont = E.Emulator.run ~verify:false c.P.image in
  let base =
    400 + 64 + List.fold_left max 0 cont.E.Emulator.region_sizes
  in
  let fallbacks = ref 0 in
  for budget = base to base + 64 do
    let supply = E.Power.Periodic budget in
    let a = E.Emulator.create ~verify:false ~supply c.P.image in
    let b = E.Emulator.create ~verify:false ~supply c.P.image in
    let ra = drive_engine E.Emulator.Reference a in
    let rb = drive_engine E.Emulator.Block b in
    fallbacks := !fallbacks + fallback_steps b;
    Alcotest.(check bool)
      (Printf.sprintf "budget=%d: block = reference" budget)
      true (rb = ra);
    Alcotest.(check int64)
      (Printf.sprintf "budget=%d: nv digest" budget)
      (E.Emulator.nv_digest a) (E.Emulator.nv_digest b)
  done;
  Alcotest.(check bool) "some power edge took the fallback" true
    (!fallbacks > 0)

(* WARIO_SAVE_ALL is sampled exactly once, at [create]: an instance created
   while the flag is clear must behave as save-all-off even if the flag is
   set before it runs; and the flag genuinely changes behaviour (save-all
   checkpoints cost more cycles).  ""/"0" mean off, so the test can clear
   the variable without unsetenv. *)
let test_save_all_sampled_at_create () =
  let m = Wario_workloads.Micro.find "rmw_loop" in
  let c = P.compile P.Wario m.Wario_workloads.Micro.source in
  Unix.putenv "WARIO_SAVE_ALL" "";
  let off = E.Emulator.run ~verify:false c.P.image in
  let inst = E.Emulator.create ~verify:false c.P.image in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "WARIO_SAVE_ALL" "")
    (fun () ->
      Unix.putenv "WARIO_SAVE_ALL" "1";
      let on = E.Emulator.run ~verify:false c.P.image in
      let inst_r = drive_step inst in
      Alcotest.(check bool)
        "instance created before the flip stays save-all-off" true
        (inst_r = off);
      Alcotest.(check (list int32))
        "save-all does not change output" off.E.Emulator.output
        on.E.Emulator.output;
      Alcotest.(check bool) "save-all checkpoints cost more cycles" true
        (on.E.Emulator.cycles > off.E.Emulator.cycles);
      Unix.putenv "WARIO_SAVE_ALL" "0";
      let zero = E.Emulator.run ~verify:false c.P.image in
      Alcotest.(check bool) "\"0\" means off" true (zero = off))

let suite =
  [
    Alcotest.test_case "alu" `Quick test_alu;
    Alcotest.test_case "sdiv by zero" `Quick test_sdiv_by_zero_is_zero;
    Alcotest.test_case "flags and conditions" `Quick test_flags_and_conditions;
    Alcotest.test_case "memory widths" `Quick test_memory_widths;
    Alcotest.test_case "push and calls" `Quick test_push_and_calls;
    Alcotest.test_case "memory fault" `Quick test_memory_fault;
    Alcotest.test_case "link errors" `Quick test_link_errors;
    Alcotest.test_case "data initialisation" `Quick test_data_init;
    Alcotest.test_case "verifier: unprotected trips" `Quick
      test_verifier_catches_unprotected;
    Alcotest.test_case "intermittent = continuous output" `Quick
      test_continuous_equals_intermittent_output;
    Alcotest.test_case "crash everywhere" `Slow test_crash_everywhere;
    Alcotest.test_case "no-forward-progress detection" `Quick
      test_no_forward_progress_detected;
    Alcotest.test_case "double buffering invariant" `Quick
      test_checkpoint_double_buffering;
    Alcotest.test_case "interrupts: protected builds safe" `Slow test_interrupts_safe;
    Alcotest.test_case "interrupts: unprotected violates" `Quick
      test_interrupt_unprotected_violates;
    Alcotest.test_case "interrupts: cpsid defers" `Quick test_cpsid_defers;
    Alcotest.test_case "power models" `Quick test_power_models;
    Alcotest.test_case "power: degenerate supplies rejected" `Quick
      test_power_degenerate_supplies;
    Alcotest.test_case "traces: determinism and regimes" `Quick
      test_traces_deterministic;
    Alcotest.test_case "trace-driven run" `Quick test_trace_run;
    Alcotest.test_case "region statistics" `Quick test_region_stats;
    Alcotest.test_case "run_batch = step" `Quick test_run_batch_matches_step;
    Alcotest.test_case "block engine: clone mid-block" `Quick
      test_block_clone_mid_block;
    Alcotest.test_case "block engine: irq fallback" `Quick
      test_block_irq_fallback;
    Alcotest.test_case "block engine: power-edge sweep" `Quick
      test_block_power_edge_sweep;
    Alcotest.test_case "run_batch rejects n < 1" `Quick
      test_run_batch_rejects_nonpositive;
    Alcotest.test_case "WARIO_SAVE_ALL sampled at create" `Quick
      test_save_all_sampled_at_create;
  ]

(* --- cycle model ----------------------------------------------------- *)

let cycles_of code =
  (run_code (code @ [ I.Svc 1 ])).E.Emulator.cycles - 400 (* minus boot *)

let test_cycle_model () =
  (* documented costs: alu 1, mov 1, movw32 2, ldr/str 2, div 6,
     taken branch 3 (pipeline refill), untaken conditional 1, bl 4, svc-halt 1 *)
  let base = cycles_of [] in
  Alcotest.(check int) "halt only" 1 base;
  Alcotest.(check int) "alu" (base + 1) (cycles_of [ I.Alu (I.ADD, 0, 0, I.I 1l) ]);
  Alcotest.(check int) "movw32" (base + 2) (cycles_of [ I.Movw32 (0, 0x12345l) ]);
  Alcotest.(check int) "sdiv" (base + 6) (cycles_of [ I.Alu (I.SDIV, 0, 0, I.I 1l) ]);
  Alcotest.(check int) "ldr" (base + 2 + 2)
    (cycles_of [ I.Movw32 (1, 0x1000l); I.Ldr (I.W32, 0, 1, 0l) ]);
  (* untaken conditional branch: 1 cycle *)
  Alcotest.(check int) "bc untaken" (base + 1 + 1)
    (cycles_of [ I.Cmp (0, I.I 1l); I.Bc (I.EQ, "main") ]);
  (* taken unconditional branch: 3 cycles; branch to a final halt block *)
  let prog =
    { I.mfuncs =
        [ { I.mname = "main"; frame_words = 0; mframe = None;
            mblocks =
              [ { I.mlabel = "main"; mcode = [ I.B "done_" ] };
                { I.mlabel = "skip"; mcode = [ I.Alu (I.ADD, 0, 0, I.I 1l) ] };
                { I.mlabel = "done_"; mcode = [ I.Svc 1 ] } ] } ];
      mdata = [] }
  in
  let r = E.Emulator.run (E.Image.link prog) in
  Alcotest.(check int) "b taken skips and refills" (400 + 3 + 1)
    r.E.Emulator.cycles

let test_ckpt_cost_formula () =
  Alcotest.(check int) "empty mask" (12 + (2 * 3)) (E.Emulator.ckpt_cost 0);
  Alcotest.(check int) "four regs" (12 + (2 * 7)) (E.Emulator.ckpt_cost 0xf);
  Alcotest.(check bool) "restore cheaper than save" true
    (E.Emulator.restore_cost 0xf < E.Emulator.ckpt_cost 0xf)

let cycle_suite =
  [
    Alcotest.test_case "cycle model" `Quick test_cycle_model;
    Alcotest.test_case "checkpoint cost formula" `Quick test_ckpt_cost_formula;
  ]
