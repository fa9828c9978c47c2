(* perfbench: the repository's end-to-end benchmark.

   One process runs one workload for a fixed time and prints, as the last
   line of its standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Every number is taken
   from outside the library: the benchmark times calls into public
   functions (Pipeline.compile/certify, Pgo.compile_candidates,
   Emulator.create/run_batch/engine_stats, Campaign.run_case, Cache.counters,
   Minic.compile, Ir_interp.run) and, in the traced run, passes live
   Metrics/Span recorders into the functions that accept them.  Span
   self times and worker utilisation come from Wario.Stats.

     python3 perfbench/run.py --workload cold-compile --seed 1 \
       --seconds 10 --trace 0

   perfbench/README.md says why each workload exists and which layer each
   metric belongs to. *)

module P = Wario.Pipeline
module Cache = Wario.Cache
module Pgo = Wario.Pgo
module Emu = Wario_emulator.Emulator
module Power = Wario_emulator.Power
module Certify = Wario_certify.Certify
module M = Wario_obs.Metrics
module S = Wario_obs.Span
module Campaign = Wario_verify.Campaign
module Programs = Wario_workloads.Programs
module Micro = Wario_workloads.Micro
module Ir = Wario_ir.Ir
module Stats = Wario.Stats
module Json = Wario_support.Json

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let now = Unix.gettimeofday

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

type size = Full | Tiny

type program = {
  pname : string;
  source : string;
  expected : int32 list;
      (** reference output: Ir_interp on the front-end IR for the Table-3
          programs, [Micro.expected] for micros — never the compiler under
          test *)
}

let ir_size (prog : Ir.program) =
  List.fold_left
    (fun n (f : Ir.func) ->
      List.fold_left
        (fun n (b : Ir.block) -> n + List.length b.Ir.insns + 1)
        n f.Ir.blocks)
    0 prog.Ir.funcs

(* Front-end IR size per program, for attributing traced front-end work. *)
let ir_sizes : (string, int) Hashtbl.t = Hashtbl.create 16

let front_end name source =
  let ir = Wario_minic.Minic.compile source in
  Hashtbl.replace ir_sizes name (ir_size ir);
  ir

let table3 name =
  let b = Programs.find name in
  let r = Wario_ir.Ir_interp.run (front_end name b.Programs.source) in
  { pname = name; source = b.Programs.source; expected = r.output }

let micro name =
  let m = Micro.find name in
  ignore (front_end name m.Micro.source);
  { pname = name; source = m.Micro.source; expected = m.Micro.expected }

let table3_names =
  List.map (fun (b : Programs.benchmark) -> b.name) Programs.all

let micro_names = List.map (fun (m : Micro.t) -> m.name) Micro.all

(* ------------------------------------------------------------------ *)
(* One pass                                                             *)
(* ------------------------------------------------------------------ *)

(* Exact outcome of one final image under continuous power and under
   Periodic 100000 (None for plain-c, which cannot make forward progress
   intermittently). *)
type row = {
  r_prog : string;
  r_env : string;
  r_instrs : int;
  r_ckpts : int;
  r_cycles : int;
  r_cycles_int : int option;
  r_instrs_int : int option;
  r_text : int;
}

type pass = {
  warmup : bool;
  traced : bool;
  spans : S.t;
  rng : Random.State.t;
  times : (string * string, float) Hashtbl.t;
      (** (timed call kind, job) -> seconds in this pass *)
  counts : (string, float) Hashtbl.t;
      (** work counts that repeat exactly for a seed, every pass *)
  raw : (string, float) Hashtbl.t;  (** per-layer inputs, traced passes only *)
  mutable rows : row list;
  mutable min_boundary_pct : float option;
  mutable attempted : int;
  mutable failed : int;
}

let new_pass ?(warmup = false) ~traced rng =
  {
    warmup;
    traced;
    spans = (if traced then S.create () else S.disabled);
    rng;
    times = Hashtbl.create 64;
    counts = Hashtbl.create 16;
    raw = Hashtbl.create 64;
    rows = [];
    min_boundary_pct = None;
    attempted = 0;
    failed = 0;
  }

let failure_log = ref []

(* One operation: counted as attempted; a correctness failure or an
   exception counts it as failed and the run goes on. *)
let op p id f =
  p.attempted <- p.attempted + 1;
  let failed msg =
    p.failed <- p.failed + 1;
    failure_log := (id ^ ": " ^ msg) :: !failure_log;
    Printf.eprintf "perfbench: FAILED %s: %s\n%!" id msg
  in
  try S.with_span ~attrs:[ ("op", S.Str id) ] p.spans "bench.op" f with
  | Failed msg -> failed msg
  | e -> failed (Printexc.to_string e)

(* A timed call into the library: wall seconds accumulate under
   (kind, job); in a traced pass the call is also a "bench.call" span, so
   the part of it no library span covers is its self time. *)
let timed p kind job f =
  let t0 = now () in
  let r = S.with_span ~attrs:[ ("kind", S.Str kind) ] p.spans "bench.call" f in
  add p.times (kind, job) (now () -. t0);
  r

let registry p = if p.traced then M.create () else M.disabled

let fold_metrics p m =
  List.iter
    (fun (name, v) ->
      add p.raw ("m:" ^ name)
        (match v with M.Count n -> float_of_int n | M.Time_ms ms -> ms))
    (M.items m)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The jobs of a pass in seed order.  A warm-up pass runs only the job of
   median size (front-end IR, then wario after other environments): it
   runs every layer a pass runs and is cheap enough to repeat, so set-up
   can keep the median of several warm-ups. *)
let jobs_of p ~prog ~env jobs =
  if p.warmup then
    let size j =
      ( Option.value ~default:0 (Hashtbl.find_opt ir_sizes (prog j)),
        env j = P.Wario )
    in
    let sorted =
      List.stable_sort (fun a b -> compare (size a) (size b)) jobs
    in
    [ List.nth sorted (List.length sorted / 2) ]
  else shuffle p.rng jobs

(* ------------------------------------------------------------------ *)
(* Shared steps                                                         *)
(* ------------------------------------------------------------------ *)

(* Emulator.run's own loop, spelled out so the instance's engine_stats
   can be read afterwards. *)
let run_image img supply =
  let st = Emu.create ~verify:false ~supply img in
  while not (Emu.halted st) do
    ignore (Emu.run_batch st 4096)
  done;
  (Emu.result st, Emu.engine_stats st)

let periodic = Power.Periodic 100000

(* Run a final image continuous and intermittent, check both outputs
   against the reference and record its exact row.  [timed] charges the
   runs to the "emu" kind. *)
let check_runs p ~timed:t pr env (c : P.compiled) =
  let id = pr.pname ^ "/" ^ P.environment_name env in
  let go supply label =
    let r, es =
      if t then
        timed p "emu" id (fun () ->
            S.with_span p.spans "bench.emulate" (fun () ->
                run_image c.P.image supply))
      else run_image c.P.image supply
    in
    if r.Emu.output <> pr.expected then
      fail "%s run output differs from the reference" label;
    if t then begin
      add p.counts "emu.instrs" (float_of_int r.Emu.instrs);
      add p.raw "emu.dispatches" (float_of_int es.Emu.es_dispatches);
      add p.raw "emu.fallback_steps" (float_of_int es.Emu.es_fallback_steps);
      add p.raw "emu.block_compile_ms" es.Emu.es_compile_ms
    end;
    r
  in
  let rc = go Power.Continuous "continuous" in
  let ri = if env = P.Plain then None else Some (go periodic "periodic") in
  p.rows <-
    {
      r_prog = pr.pname;
      r_env = P.environment_name env;
      r_instrs = rc.Emu.instrs;
      r_ckpts = rc.Emu.checkpoints_total;
      r_cycles = rc.Emu.cycles;
      r_cycles_int = Option.map (fun (r : Emu.result) -> r.Emu.cycles) ri;
      r_instrs_int = Option.map (fun (r : Emu.result) -> r.Emu.instrs) ri;
      r_text = c.P.text_bytes;
    }
    :: p.rows

let certified p verdict =
  match verdict with
  | Certify.Certified st -> add p.raw "certify.pairs" (float_of_int st.s_pairs)
  | Certify.Rejected _ -> fail "instrumented image does not certify"

let certify p c = S.with_span p.spans "bench.certify" (fun () -> P.certify c)

let work_dir = ref "perfbench/_work"
let dir_seq = ref 0

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec tree_bytes path =
  match Sys.is_directory path with
  | true ->
      Array.fold_left
        (fun n f -> n + tree_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

(* A fresh, empty cache directory for one cold pass: never the ambient
   WARIO_CACHE_DIR. *)
let with_fresh_cache p f =
  incr dir_seq;
  let dir =
    Filename.concat !work_dir
      (Printf.sprintf "cache-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  remove_tree dir;
  let cache = Cache.create dir in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      f cache;
      if p.traced then begin
        let k = Cache.counters cache in
        add p.raw "cache.hits" (float_of_int k.Cache.hits);
        add p.raw "cache.misses" (float_of_int k.Cache.misses);
        add p.raw "cache.puts" (float_of_int k.Cache.puts);
        add p.raw "cache.store_bytes" (float_of_int (tree_bytes dir))
      end)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* A workload's set-up has two steps.  [inputs] builds the programs and
   their reference outputs; it is cheap and repeated.  Applied to (), the
   result builds what the passes reuse (images, for emulate and campaign)
   and returns one pass over the job set.  [primary] names the timed-call
   kinds whose per-pass totals add up to the workload's pass_s. *)
type workload = {
  w_name : string;
  primary : string list;
  inputs : size -> seed:int -> unit -> pass -> unit;
}

let cold_compile size ~seed:_ =
  let progs =
    match size with
    | Full -> List.map table3 table3_names @ List.map micro micro_names
    | Tiny ->
        [ table3 "crc"; table3 "coremark"; micro "arith"; micro "rmw_loop" ]
  in
  let jobs =
    List.concat_map (fun pr -> [ (pr, P.Ratchet); (pr, P.Wario) ]) progs
  in
  fun () p ->
    with_fresh_cache p (fun cache ->
        let cold =
          List.filter_map
            (fun (pr, env) ->
              let id = pr.pname ^ "/" ^ P.environment_name env in
              let out = ref None in
              op p id (fun () ->
                  let m = registry p in
                  let c, verdict =
                    timed p "cold" id (fun () ->
                        let c =
                          P.compile ~metrics:m ~spans:p.spans ~cache env
                            pr.source
                        in
                        (c, certify p c))
                  in
                  fold_metrics p m;
                  certified p verdict;
                  check_runs p ~timed:true pr env c;
                  (* keep only the image bytes: live compiled records would
                     grow the heap through the pass and slow later jobs *)
                  out := Some (id, pr, env, Marshal.to_string c.P.image []));
              !out)
            (jobs_of p ~prog:(fun (pr, _) -> pr.pname) ~env:snd jobs)
        in
        List.iter
          (fun (id, pr, env, cold_image) ->
            op p (id ^ "/warm") (fun () ->
                let before = Cache.counters cache in
                let w =
                  timed p "warm" id (fun () ->
                      P.compile ~spans:p.spans ~cache env pr.source)
                in
                let after = Cache.counters cache in
                (* a warm compile that misses recompiles: identical bytes,
                   but not the cache replay this phase measures *)
                if after.Cache.misses > before.Cache.misses then
                  fail "warm compile missed the cache";
                if after.Cache.hits = before.Cache.hits then
                  fail "warm compile did not read the cache";
                if Marshal.to_string w.P.image [] <> cold_image then
                  fail "warm image is not byte-identical to the cold one"))
          cold)

let pgo_opts = { P.default_options with P.elide = true; motion = true }

let pgo_inter size ~seed:_ =
  let progs =
    match size with
    | Full ->
        List.map table3 [ "crc"; "sha"; "dijkstra" ]
        @ List.map micro micro_names
    | Tiny -> [ table3 "crc"; micro "arith"; micro "rmw_loop" ]
  in
  fun () p ->
    with_fresh_cache p (fun cache ->
        List.iter
          (fun pr ->
            op p pr.pname (fun () ->
                let m = registry p in
                let cs, sel, verdict =
                  timed p "pgo" pr.pname (fun () ->
                      let cs =
                        Pgo.compile_candidates ~opts:pgo_opts ~metrics:m
                          ~spans:p.spans ~cache P.Wario pr.source
                      in
                      let sel = Pgo.compiled_of cs cs.Pgo.pilot.Pgo.selected in
                      (cs, sel, certify p sel))
                in
                fold_metrics p m;
                certified p verdict;
                List.iter
                  (fun (c : P.compiled) ->
                    Option.iter
                      (fun (e : Wario.Elide.stats) ->
                        add p.raw "elide.tried"
                          (float_of_int (e.tried + e.boundary_tried));
                        add p.raw "elide.elided"
                          (float_of_int (e.elided + e.boundary_elided)))
                      c.P.elision;
                    Option.iter
                      (fun (s : Wario.Motion.stats) ->
                        add p.raw "motion.proposed" (float_of_int s.proposed);
                        add p.raw "motion.applied" (float_of_int s.applied))
                      c.P.motion)
                  [ cs.Pgo.greedy_c; cs.static_c; cs.profile_c; cs.inter_c ];
                check_runs p ~timed:true pr P.Wario sel))
          (jobs_of p ~prog:(fun pr -> pr.pname) ~env:(fun _ -> P.Wario) progs))

let emulate size ~seed:_ =
  let names =
    match size with Full -> table3_names | Tiny -> [ "crc"; "coremark" ]
  in
  let progs = List.map table3 names in
  fun () ->
    let images =
      List.concat_map
        (fun pr ->
          List.map
            (fun env ->
              (pr, env, P.compile ~cache:Cache.disabled env pr.source))
            [ P.Plain; P.Ratchet; P.Wario ])
        progs
    in
    fun p ->
      List.iter
        (fun (pr, env, c) ->
          op p (pr.pname ^ "/" ^ P.environment_name env) (fun () ->
              check_runs p ~timed:true pr env c))
        (jobs_of p ~prog:(fun (pr, _, _) -> pr.pname) ~env:(fun (_, e, _) -> e)
           images)

(* Schedules per case: the budget of `iclang verify --campaign --small`,
   which CI runs.  The budget also picks the plan (the exhaustive triple
   set only while it fits, else a greedy cover or a sweep) and caps the
   adversary's regions and the mop-up, so a smaller one would time a
   campaign no caller runs. *)
let campaign_budget = Campaign.small_budget

(* The warm-up case, and the smoke test's, at a budget that runs every
   phase of a case at a tenth of the cost. *)
let warmup_budget = 200

(* byte_ops is the Micro.tiny program whose adversary does the most
   bisection; a pass at the full budget costs about 27 s on 2 cores, so
   the other two Micro.tiny programs stay out. *)
let campaign_names = [ "byte_ops" ]

(* The campaign's Exec pool width: nproc.  The other workloads run
   sequentially. *)
let campaign_jobs = Wario_exec.Exec.default_jobs ()

let campaign size ~seed =
  let names = match size with Full -> campaign_names | Tiny -> [ "arith" ] in
  let progs = List.map micro names in
  fun () ->
    let cases =
      List.concat_map
        (fun pr ->
          List.map
            (fun env -> (pr, env, P.compile ~cache:Cache.disabled env pr.source))
            [ P.Ratchet; P.Wario ])
        progs
    in
    let config budget =
      {
        Campaign.default_config with
        budget;
        seed = Int64.of_int seed;
        jobs = campaign_jobs;
      }
    in
    fun p ->
      let config =
        config
          (if p.warmup || size = Tiny then warmup_budget else campaign_budget)
      in
      List.iter
        (fun (pr, env, c) ->
          let id = pr.pname ^ "/" ^ P.environment_name env in
          op p id (fun () ->
              let r =
                timed p "campaign" id (fun () ->
                    Campaign.run_case ~spans:p.spans config
                      ~workload:(pr.pname, pr.source) ~env)
              in
              add p.counts "campaign.schedules" (float_of_int r.k_schedules);
              add p.counts "campaign.probes" (float_of_int r.k_probes);
              add p.counts "campaign.failures" (float_of_int r.k_failures_total);
              let pct = Campaign.boundary_pct r.k_coverage in
              p.min_boundary_pct <-
                Some
                  (Float.min pct (Option.value ~default:pct p.min_boundary_pct));
              if r.k_failures_total > 0 then
                fail "campaign found %d divergent schedule(s)" r.k_failures_total;
              if pct < 95. then fail "boundary coverage %.2f%% is below 95%%" pct;
              check_runs p ~timed:false pr env c))
        (jobs_of p ~prog:(fun (pr, _, _) -> pr.pname) ~env:(fun (_, e, _) -> e)
           cases)

let workloads =
  [
    {
      w_name = "cold-compile";
      primary = [ "cold"; "warm" ];
      inputs = cold_compile;
    };
    { w_name = "pgo-inter"; primary = [ "pgo" ]; inputs = pgo_inter };
    { w_name = "emulate"; primary = [ "emu" ]; inputs = emulate };
    { w_name = "campaign"; primary = [ "campaign" ]; inputs = campaign };
  ]

(* ------------------------------------------------------------------ *)
(* Span attribution                                                     *)
(* ------------------------------------------------------------------ *)

(* The layer a span's self time belongs to.  None marks time no layer
   owns: the benchmark's own wrappers (a bench.call's self time is the
   part of a timed call no library span covers) and the entry points
   that wrap layers — pipeline.compile's self time is stage keying and cache
   reads/writes, campaign.case's includes the case's compile, neither has
   a span of its own.  Worker spans run on other tracks and are not
   summed. *)
let layer_of name =
  let pre s = String.starts_with ~prefix:s name in
  match name with
  | "frontend" -> Some "minic"
  | "middle.expander_trials" -> Some "expander"
  | "backend" | "link" -> Some "backend"
  | "backend.elide" | "backend.motion" | "bench.certify" -> Some "certify"
  | "bench.emulate" -> Some "emu"
  | "campaign.chunk" | "exec.map" -> Some "exec"
  | "pipeline.compile" | "pgo.audition" | "campaign.case" -> None
  | _ when name = "middle" || pre "middle." -> Some "middle"
  | _ when pre "certify." -> Some "certify"
  | _ when pre "pgo." -> Some "pgo"
  | _ when pre "campaign." -> Some "verify"
  | _ -> None

let attr_str (s : S.span) k =
  match List.assoc_opt k s.S.sp_attrs with Some (S.Str v) -> v | _ -> ""

(* Fold a traced pass's span forest into its raw table: self/total ms per
   span name on track 0 (Exec workers run on their own tracks), layer self
   times and worker busy/idle time from Wario.Stats; counters, candidate
   compiles per PGO variant and front-end IR size per program from the
   spans themselves. *)
let fold_spans p roots =
  List.iter
    (fun (r : Stats.span_row) ->
      if r.Stats.sr_track = 0 then begin
        let path = r.Stats.sr_path in
        let i = String.rindex path '/' + 1 in
        let name = String.sub path i (String.length path - i) in
        add p.raw ("self:" ^ name) r.Stats.sr_self_ms;
        add p.raw ("dur:" ^ name) r.Stats.sr_dur_ms;
        add p.raw ("n:" ^ name) 1.;
        Option.iter
          (fun l -> add p.raw ("layer:" ^ l) r.Stats.sr_self_ms)
          (layer_of name)
      end)
    (Stats.top_spans ~k:max_int roots);
  List.iter
    (fun (w : Stats.worker_row) ->
      add p.raw "exec.busy_ms" w.Stats.wk_busy_ms;
      add p.raw "exec.idle_ms" w.Stats.wk_idle_ms;
      add p.raw "exec.items" (float_of_int w.Stats.wk_items))
    (Stats.worker_utilization roots);
  let rec walk prog (s : S.span) =
    let name = s.S.sp_name in
    (* an op's id starts with its program's name *)
    let prog =
      if name = "bench.op" then
        List.hd (String.split_on_char '/' (attr_str s "op"))
      else prog
    in
    if name = "frontend" then
      add p.raw "minic.ir_instrs"
        (float_of_int
           (Option.value ~default:0 (Hashtbl.find_opt ir_sizes prog)));
    List.iter
      (fun (k, v) -> add p.raw ("ctr:" ^ name ^ ":" ^ k) (float_of_int v))
      s.S.sp_counters;
    if name = "pgo.audition" then
      add p.raw ("dur:pgo.audition:" ^ attr_str s "variant") s.S.sp_dur;
    List.iter (walk prog) s.S.sp_children
  in
  List.iter (walk "") roots

let sum_prefix raw prefix =
  Hashtbl.fold
    (fun k v acc -> if String.starts_with ~prefix k then acc +. v else acc)
    raw 0.

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-pass total of some timed-call kinds: the sum over their jobs of
   each job's median across passes, so one slow sample of one job moves it
   little. *)
let kind_total samples kinds =
  Hashtbl.fold
    (fun (k, _) xs acc -> if List.mem k kinds then acc +. median xs else acc)
    samples 0.

let collect_samples passes =
  let samples = Hashtbl.create 64 in
  List.iter
    (fun p ->
      Hashtbl.iter
        (fun key v ->
          Hashtbl.replace samples key
            (v :: Option.value ~default:[] (Hashtbl.find_opt samples key)))
        p.times)
    passes;
  samples

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec loop () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> loop ()
    | exception End_of_file -> 0.
  in
  loop ()

let sum_rows f rows = List.fold_left (fun n r -> n + f r) 0 rows

let end_to_end ~setup_s ~pass_s ~rows =
  let exact f = float_of_int (sum_rows f rows) in
  [
    ("setup_s", "s", setup_s);
    ("pass_s", "s", pass_s);
    ("peak_rss_mb", "MiB", peak_rss_mb ());
    ("dyn_ckpts", "count", exact (fun r -> r.r_ckpts));
    ("sim_cycles", "cycles", exact (fun r -> r.r_cycles));
    ( "sim_cycles_intermittent",
      "cycles",
      exact (fun r -> Option.value ~default:0 r.r_cycles_int) );
    ("text_bytes", "bytes", exact (fun r -> r.r_text));
  ]

(* Per-layer numbers of one traced pass, from its raw table. *)
let layer_metrics (p : pass) =
  let r = get p.raw in
  let s k = r k /. 1000. in
  let layer l = s ("layer:" ^ l) in
  let calls = r "dur:bench.call" in
  let covered = sum_prefix p.raw "layer:" in
  let exact = r "m:middle.checkpoint_inserter.exact" in
  let cand = r "ctr:middle.expander_trials:candidates" in
  let inlined = r "ctr:middle.expander_trials:inlined" in
  let instrs = get p.counts "emu.instrs" in
  let variant v = s ("dur:pgo.audition:" ^ v) in
  let hits = r "cache.hits" and misses = r "cache.misses" in
  let busy = r "exec.busy_ms" in
  [
    ("minic.s", "s", layer "minic");
    ("minic.ir_instrs", "count", r "minic.ir_instrs");
    ("middle.s", "s", layer "middle");
    ( "middle.checkpoint_inserter.s",
      "s",
      s "self:middle.checkpoint_inserter" );
    ("middle.hs_nodes", "count", r "ctr:middle.checkpoint_inserter:hs_nodes");
    ( "middle.placement_exact_ratio",
      "ratio",
      ratio exact (exact +. r "m:middle.checkpoint_inserter.fallback") );
    ( "middle.loop_write_clusterer.s",
      "s",
      s "self:middle.loop_write_clusterer" );
    ("middle.wars", "count", r "ctr:middle.checkpoint_inserter:wars");
    ( "middle.ckpts_static",
      "count",
      r "ctr:middle.checkpoint_inserter:checkpoints" );
    ("expander.trials.s", "s", layer "expander");
    ("expander.candidates", "count", cand);
    ("expander.inlined", "count", inlined);
    ("expander.accept_ratio", "ratio", ratio inlined cand);
    ("backend.s", "s", layer "backend");
    ("backend.webs.s", "s", s "m:backend.webs.ms");
    ("backend.regalloc.s", "s", s "m:backend.regalloc.ms");
    ("backend.stack_ckpt.s", "s", s "m:backend.stack_ckpt.ms");
    ("backend.spill_ckpts", "count", r "m:backend.spill_ckpts");
    ("certify.s", "s", s "self:bench.certify");
    ("certify.pairs", "count", r "certify.pairs");
    ("certify.rechecks", "count", sum_prefix p.raw "n:certify.");
    ("certify.recheck.s", "s", sum_prefix p.raw "dur:certify." /. 1000.);
    ( "elide.kept_ratio",
      "ratio",
      ratio (r "elide.tried" -. r "elide.elided") (r "elide.tried") );
    ( "motion.applied_ratio",
      "ratio",
      ratio (r "motion.applied") (r "motion.proposed") );
    ("cache.hits", "count", hits);
    ("cache.misses", "count", misses);
    ("cache.puts", "count", r "cache.puts");
    ("cache.hit_ratio", "ratio", ratio hits (hits +. misses));
    ("cache.store_bytes", "bytes", r "cache.store_bytes");
    ("pgo.s", "s", layer "pgo");
    ("pgo.pilot.s", "s", s "dur:pgo.pilot");
    ("pgo.measure.s", "s", s "dur:pgo.measure");
    ("pgo.candidate.greedy.s", "s", variant "greedy");
    ("pgo.candidate.static.s", "s", variant "static-weighted");
    ("pgo.candidate.profile.s", "s", variant "profile-guided");
    ("pgo.candidate.inter.s", "s", variant "interprocedural");
    ("emu.s", "s", layer "emu");
    ("emu.instrs", "count", instrs);
    ("emu.block.dispatches", "count", r "emu.dispatches");
    ( "emu.block.fallback_ratio",
      "ratio",
      ratio (r "emu.fallback_steps") instrs );
    ("emu.block.compile_ms", "ms", r "emu.block_compile_ms");
    ("campaign.golden.s", "s", s "dur:campaign.golden");
    ("campaign.adversary.s", "s", s "dur:campaign.adversary");
    ("campaign.plan.s", "s", s "dur:campaign.plan");
    ("campaign.execute.s", "s", s "dur:campaign.execute");
    ("campaign.mopup.s", "s", s "dur:campaign.mopup");
    ("campaign.schedules", "count", get p.counts "campaign.schedules");
    ("campaign.probes", "count", get p.counts "campaign.probes");
    ("campaign.failures", "count", get p.counts "campaign.failures");
    ("exec.s", "s", layer "exec");
    ("exec.busy_ratio", "ratio", ratio busy (busy +. r "exec.idle_ms"));
    ("exec.items", "count", r "exec.items");
    ("unattributed.s", "s", (calls -. covered) /. 1000.);
    ("trace.layer_share_pct", "%", 100. *. ratio covered calls);
  ]

(* Headline numbers of each workload, from the untraced passes of a traced
   run; zero on the workloads that do not run them. *)
let headline ~samples ~(last : pass) =
  let total k = kind_total samples [ k ] in
  let emu_s = total "emu" and camp_s = total "campaign" in
  let judged =
    get last.counts "campaign.schedules" +. get last.counts "campaign.probes"
  in
  [
    ("cold_compile_s", "s", total "cold");
    ("warm_compile_s", "s", total "warm");
    ("pgo_s", "s", total "pgo");
    ( "emu_minstr_per_s",
      "Minstr/s",
      ratio (get last.counts "emu.instrs" /. 1e6) emu_s );
    ("campaign_sched_per_s", "sched/s", ratio judged camp_s);
    ( "campaign_boundary_pct",
      "%",
      Option.value ~default:0. last.min_boundary_pct );
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_string s = "\"" ^ Json.escape s ^ "\""
let json_num = Json.float_repr

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (json_string name) (json_num v) (json_string unit))
         ms)
  ^ "}"

let json_row r =
  let opt = function Some n -> string_of_int n | None -> "null" in
  Printf.sprintf
    "{\"program\": %s, \"env\": %s, \"instrs\": %d, \"dyn_ckpts\": %d, \
     \"cycles\": %d, \"instrs_intermittent\": %s, \"cycles_intermittent\": \
     %s, \"text_bytes\": %d}"
    (json_string r.r_prog) (json_string r.r_env) r.r_instrs r.r_ckpts
    r.r_cycles (opt r.r_instrs_int) (opt r.r_cycles_int) r.r_text

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--size \
   full|tiny] [--work-dir DIR] [--commit REV]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and size = ref "full" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--size", Arg.Set_string size, "full|tiny job sets (tiny: smoke test)");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch and result files");
      ("--commit", Arg.Set_string commit, "REV source revision to record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die fmt =
    Printf.ksprintf
      (fun s ->
        prerr_endline ("perfbench: " ^ s);
        exit 2)
      fmt
  in
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
        die "unknown workload %S (one of: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.w_name) workloads))
  in
  let size_v =
    match !size with
    | "full" -> Full
    | "tiny" -> Tiny
    | s -> die "unknown --size %S" s
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0. then die "--seconds must be positive";
  (* WARIO_SAVE_ALL makes every checkpoint save the whole register file,
     which changes every simulated metric. *)
  (match Sys.getenv_opt "WARIO_SAVE_ALL" with
  | Some v when v <> "" && v <> "0" ->
      die "WARIO_SAVE_ALL is set; unset it, it changes every simulated metric"
  | _ -> ());
  (* Every cache is explicit: the ambient one stays off for callees that
     take none (Campaign compiles through it). *)
  Unix.putenv "WARIO_CACHE_DIR" "";
  mkdir_p !work_dir;
  let traced = !trace = 1 in
  let rng = Random.State.make [| !seed |] in
  let all = ref [] in
  let run run_pass ?warmup ~traced () =
    Gc.compact ();
    let p = new_pass ?warmup ~traced rng in
    let t0 = now () in
    S.with_span p.spans "bench.pass" (fun () -> run_pass p);
    let dt = now () -. t0 in
    all := p :: !all;
    (p, dt)
  in
  (* One set-up: the inputs, the one-time build and a warm-up pass, which
     starts the passes after it from a warm heap.  setup_s is the median
     of several whole set-ups. *)
  let setup () =
    Gc.compact ();
    let t0 = now () in
    let build = w.inputs size_v ~seed:!seed in
    let t1 = now () in
    let run_pass = build () in
    let t2 = now () in
    let _, warm_s = run run_pass ~warmup:true ~traced:false () in
    ((t1 -. t0, t2 -. t1, warm_s), run_pass)
  in
  let measured = ref [] in
  let reference = ref [] in
  let last = ref 0. in
  (* The measured passes are split among the set-ups: after each one,
     passes run while the next, as long as the last, still ends within
     its share of --seconds.  Short passes thus sample the host's drifting
     speed at several moments of the run, not in one stretch of it; a
     slow host gets fewer passes, not a longer run.  At least one pass
     runs, and a traced run makes at least one untraced and one traced
     pass.  Every pass must repeat the first one's exact rows, whichever
     set-up built its images. *)
  let share = !seconds /. float_of_int setup_reps in
  let rec passes run_pass start =
    let i = List.length !measured in
    let fits = now () -. start +. !last <= share in
    if i = 0 || (traced && i < 2) || fits then begin
      let p, dt = run run_pass ~traced:(traced && i mod 2 = 1) () in
      let rows = List.sort compare p.rows in
      if i = 0 then reference := rows
      else if rows <> !reference then begin
        p.failed <- p.failed + 1;
        failure_log := "exact counts changed between passes" :: !failure_log
      end;
      measured := p :: !measured;
      last := dt;
      passes run_pass start
    end
  in
  let setup_times =
    List.init setup_reps (fun _ ->
        let t, run_pass = setup () in
        passes run_pass (now ());
        t)
  in
  let setup_s =
    median (List.map (fun (a, b, c) -> a +. b +. c) setup_times)
  in
  let reference = !reference in
  let untraced = List.filter (fun p -> not p.traced) !measured in
  let traced_ps = List.filter (fun p -> p.traced) !measured in
  let samples = collect_samples untraced in
  let pass_s = kind_total samples w.primary in
  let span_roots =
    List.concat_map (fun p -> S.roots p.spans) (List.rev traced_ps)
  in
  let span_problem =
    match S.check span_roots with Ok () -> None | Error e -> Some e
  in
  List.iter (fun p -> fold_spans p (S.roots p.spans)) traced_ps;
  let metrics, extra =
    if not traced then (end_to_end ~setup_s ~pass_s ~rows:reference, [])
    else
      let per_pass = List.map layer_metrics traced_ps in
      let med name =
        median
          (List.map
             (fun ms ->
               let _, _, v = List.find (fun (n, _, _) -> n = name) ms in
               v)
             per_pass)
      in
      let layers =
        List.map (fun (n, u, _) -> (n, u, med n)) (List.hd per_pass)
      in
      let traced_s = kind_total (collect_samples traced_ps) w.primary in
      let last = List.hd untraced in
      ( headline ~samples ~last
        @ layers
        @ [ ("trace.overhead_s", "s", traced_s -. pass_s) ],
        end_to_end ~setup_s ~pass_s ~rows:reference )
  in
  if traced then begin
    let path =
      Filename.concat !work_dir
        (Printf.sprintf "spans-%s-seed%d.jsonl" w.w_name !seed)
    in
    write_file path (S.to_jsonl span_roots)
  end;
  (match span_problem with
  | Some e ->
      failure_log := ("span self-check: " ^ e) :: !failure_log;
      Printf.eprintf "perfbench: span self-check failed: %s\n%!" e
  | None -> ());
  let attempted = List.fold_left (fun n p -> n + p.attempted) 0 !all in
  let failed =
    List.fold_left (fun n p -> n + p.failed) 0 !all
    + if span_problem = None then 0 else 1
  in
  let env_json =
    Printf.sprintf
      "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
       \"size\": %s, \"nproc\": %d, \"jobs\": %d, \"ocaml\": %s, \"commit\": \
       %s, \"setup_reps\": %d, \"passes\": %d, \"traced_passes\": %d}"
      (json_string w.w_name) !seed (json_num !seconds) !trace
      (json_string !size) (Domain.recommended_domain_count ())
      (if w.w_name = "campaign" then campaign_jobs else 1)
      (json_string Sys.ocaml_version) (json_string !commit) setup_reps
      (List.length untraced) (List.length traced_ps)
  in
  let details =
    Printf.sprintf
      "{\"env\": %s,\n \"metrics\": %s,\n \"also\": %s,\n \"setups\": \
       [%s],\n \"times\": {%s},\n \"rows\": [%s],\n \"failures\": \
       [%s]}\n"
      env_json (json_metrics metrics) (json_metrics extra)
      (String.concat ", "
         (List.map
            (fun (i, b, w) ->
              Printf.sprintf "{\"inputs\": %s, \"build\": %s, \"warmup\": %s}"
                (json_num i) (json_num b) (json_num w))
            setup_times))
      (String.concat ",\n  "
         (Hashtbl.fold
            (fun (kind, job) xs acc ->
              Printf.sprintf "%s: [%s]"
                (json_string (kind ^ " " ^ job))
                (String.concat ", " (List.rev_map json_num xs))
              :: acc)
            samples []
         |> List.sort compare))
      (String.concat ",\n  " (List.map json_row reference))
      (String.concat ", " (List.rev_map json_string !failure_log))
  in
  write_file
    (Filename.concat !work_dir
       (Printf.sprintf "result-%s-seed%d-trace%d.json" w.w_name !seed !trace))
    details;
  Printf.printf "perfbench env %s\n" env_json;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (failed = 0) attempted failed (json_metrics metrics)
