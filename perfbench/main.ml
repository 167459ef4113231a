(* Two-clock benchmark of the Tashkent simulator.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--passes P] [--setups K]

   The sim clock carries the paper's claims (goodput, commit latency,
   stalls); the host clock (process CPU time, allocated words, heap)
   carries what the simulator costs. The amount of work is a pure
   function of the arguments: [--seconds] fixes the default pass count
   through each workload's calibrated pass cost, and nothing read from
   the host clock changes how much runs.

   --trace 0 prints the end-to-end metrics: one discarded warm-up pass,
   then P untraced passes of the same seed with K set-up samples spread
   between them, each pass and sample in a child process of its own.
   Host CPU times are scaled by the reference kernel timed alongside them
   (Reference), and summed over passes or samples. --trace 1 prints
   the per-layer metrics: a discarded warm-up pass that also records the
   run's inputs, then max 2 (P / 2) interleaved untraced/traced pairs
   (Obs.Trace stage spans on) with the K set-up samples between them, and
   every drive (Drive.batches timed batches each).

   Checks: every pass's final state (Checks.run: log invariants, replica
   consistency, cross-partition atomicity, and under a fault plan
   durability, after a drain); the online monitors in every pass where
   the workload runs them; identical sim-clock results across all
   passes, traced or not; identical allocation across the measured
   untraced passes. The last line of standard output is one JSON object;
   everything else goes to standard error. *)

module W = Workloads

let usage =
  "main.exe --workload (tpcb-mw|tpcw-api|part2-chaos) --seed N --seconds S \
   --trace 0|1 [--passes P] [--setups K]"

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let passes = ref 0
let setups_wanted = ref 6

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run size, through the calibrated pass cost");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--passes", Arg.Set_int passes, "P measured passes (default: from --seconds)");
      ("--setups", Arg.Set_int setups_wanted, "K set-up samples (default 6)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let w =
  match W.find !workload with
  | Some w -> w
  | None ->
      prerr_endline usage;
      exit 2

let () =
  if (!trace <> 0 && !trace <> 1) || !seconds < 1 || !setups_wanted < 1 then begin
    prerr_endline usage;
    exit 2
  end

(* One pass per calibrated pass cost, less the warm-up pass and the
   set-up samples; at least two. *)
let passes =
  if !passes > 0 then !passes
  else max 2 (int_of_float (float_of_int !seconds /. w.pass_cost_s) - 2)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Run [f] in a child process and return its result. Every pass and
   set-up sample runs in its own child, forked from the same parent
   state, so each starts from the same heap: run one after the other in
   one process, passes inherited each other's heap, and the major
   collector's pace (0 to 3 cycles in the same window) moved a pass's
   CPU time by up to 60%. One child runs at a time. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  Gc.compact ();
  let r, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr wr in
      let result =
        match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc result [];
      close_out oc;
      flush stderr;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr r in
      let result : ('a, string) result =
        match Marshal.from_channel ic with
        | v -> v
        | exception End_of_file -> Error "child process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with Ok v -> v | Error e -> failwith e)

let run_pass ~trace ~recording i =
  let p =
    Pass.run w ~seed:!seed ~trace ~recording ~sample_heap:(i = 0 && recording = None)
  in
  log "  pass %d%s: %d commits, %.3f s cpu (reference %.3f ms a call), %.0f words, \
       setup %.4f s"
    i
    (if trace then " traced" else "")
    p.Pass.sim.commits p.cpu_s
    (p.ref_s *. 1e3 /. float_of_int Pass.slices)
    p.words (Pass.setup_total p.setup);
  p

(* Pass 0 is the warm-up pass: discarded for host timing; unless it
   records, it is the one whose heap is sampled. *)
let pass ~trace i = in_child (fun () -> run_pass ~trace ~recording:None i)

(* One set-up sample: the workload's batch of set-ups, run back to back,
   each between reference calls. *)
let setup_sample () =
  let s =
    in_child (fun () ->
        List.init w.setup_batch (fun _ -> Pass.timed_setup w ~seed:!seed))
  in
  log "  set-ups: %s s cpu (reference %.3f ms a call)"
    (String.concat " "
       (List.map (fun (s, _) -> Printf.sprintf "%.4f" (Pass.setup_total s)) s))
    (Pass.sumf snd s *. 1e3
    /. float_of_int (2 * Pass.setup_reference_calls * List.length s));
  s

(* [n] measured passes made by [make i], with the K set-up samples
   spread evenly between them, so that no one stretch of the machine's
   drift falls on every set-up sample. *)
let passes_and_setups n make =
  let setups = ref [] and taken = ref 0 in
  let ps =
    List.init n (fun i ->
        let p = make (i + 1) in
        while !taken < !setups_wanted * (i + 1) / n do
          setups := setup_sample () @ !setups;
          incr taken
        done;
        p)
  in
  log "  %d set-up samples of %d" !taken w.setup_batch;
  (ps, !setups)

(* Window CPU time over passes, scaled to the reference machine by the
   reference calls made alongside. *)
let scaled_cpu (ps : Pass.t list) =
  Reference.scale
    ~cpu:(Pass.sumf (fun p -> p.Pass.cpu_s) ps)
    ~ref_cpu:(Pass.sumf (fun p -> p.Pass.ref_s) ps)
    ~calls:(Pass.slices * List.length ps)
  /. float_of_int (List.length ps)

(* Mean set-up phases over samples, scaled the same way. *)
let scaled_setup setups =
  let n = List.length setups in
  let scale x =
    Reference.scale ~cpu:x
      ~ref_cpu:(Pass.sumf snd setups)
      ~calls:(2 * Pass.setup_reference_calls * n)
    /. float_of_int n
  in
  let phase f = scale (Pass.sumf (fun (s, _) -> f s) setups) in
  {
    Pass.create_s = phase (fun s -> s.Pass.create_s);
    load_s = phase (fun s -> s.Pass.load_s);
    settle_s = phase (fun s -> s.Pass.settle_s);
  }

let per_commit_us cpu (p : Pass.t) = Stat.ratio cpu (float_of_int p.sim.commits) *. 1e6

(* ------------------------------------------------------------------ *)
(* Checks *)

let problems = ref []
let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let check_passes ~reference (ps : Pass.t list) =
  List.iteri
    (fun i (p : Pass.t) ->
      List.iter (fun m -> fail "pass %d: %s" i m) p.problems;
      if p.sim <> reference.Pass.sim then
        fail "pass %d: sim-clock results differ from the first pass" i)
    ps

let check_words (ps : Pass.t list) =
  match ps with
  | [] -> ()
  | p0 :: rest ->
      List.iter
        (fun (p : Pass.t) ->
          if p.words <> p0.Pass.words then
            fail "allocation differs across untraced passes: %.0f vs %.0f words"
              p0.words p.words)
        rest

(* ------------------------------------------------------------------ *)
(* Output *)

let metrics = ref []
let put name unit value = metrics := (name, unit, value) :: !metrics

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result (sim : Pass.sim) =
  let correct = !problems = [] in
  List.iter (fun m -> log "CHECK FAILED: %s" m) (List.rev !problems);
  let failed = sim.cert_aborts + sim.local_aborts + sim.unresolved in
  let body =
    List.rev_map
      (fun (name, unit, value) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value)
          unit)
      !metrics
  in
  List.iter
    (fun (name, unit, value) -> log "  %-40s %16.6f %s" name value unit)
    (List.rev !metrics);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 sim.attempted) failed (String.concat ", " body)

let ms_of_us us = float_of_int us /. 1000.

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics *)

let end_to_end () =
  log "%s seed %d: warm-up pass + %d passes" w.name !seed passes;
  let warm = pass ~trace:false 0 in
  let ps, setups = passes_and_setups passes (pass ~trace:false) in
  check_passes ~reference:warm (warm :: ps);
  (* The warm-up pass also allocates for its heap samples. *)
  check_words ps;
  let p1 = List.hd ps in
  let sim = p1.sim in
  let commits = float_of_int sim.commits in
  put "goodput_tps" "txn/s" (Stat.ratio commits (Sim.Time.to_sec sim.window));
  put "commit_pct" "%"
    (Stat.pct (float_of_int sim.upd_commits) (float_of_int sim.attempted));
  put "commit_p50_ms" "ms" (ms_of_us (Stat.percentile_int sim.latencies_us 0.50));
  put "commit_p99_ms" "ms" (ms_of_us (Stat.percentile_int sim.latencies_us 0.99));
  put "stall_top8_s" "s"
    (Array.fold_left (fun a g -> a +. Sim.Time.to_sec g) 0. sim.gaps
    /. float_of_int (Array.length sim.gaps));
  put "host_us_per_commit" "us" (per_commit_us (scaled_cpu ps) p1);
  put "words_per_commit" "words" (Stat.ratio p1.words commits);
  put "peak_heap_mb" "MB"
    (float_of_int (warm.peak_live_words * (Sys.word_size / 8)) /. 1048576.);
  put "setup_s" "s" (Pass.setup_total (scaled_setup setups));
  print_result sim

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics *)

let stage_names =
  [
    "txn.commit"; "certify"; "cert.batch"; "cert.durability"; "wal.fsync"; "apply";
    "durability";
  ]

(* Under a parallel applier the apply span is split into apply.wait and
   apply.exec; the exec half is the apply work. *)
let stage stages name =
  let find n = List.assoc_opt n stages in
  match (find name, name) with
  | Some s, _ -> Some s
  | None, "apply" -> find "apply.exec"
  | None, _ -> None

let stage_ms stages name f =
  match stage stages name with Some s -> f s /. 1000. | None -> 0.

let per_layer () =
  let pairs = max 2 (passes / 2) in
  log "%s seed %d: recording warm-up pass + %d untraced/traced pairs" w.name !seed
    pairs;
  (* The warm-up pass records the run's inputs, and its child replays them
     through every drive. *)
  let warm, drives =
    in_child (fun () ->
        let recording = Pass.new_recording () in
        let warm = run_pass ~trace:false ~recording:(Some recording) 0 in
        let inputs =
          {
            Drive.spec = w.spec;
            seed = !seed;
            n_replicas = w.n_replicas;
            rows = (w.spec ()).initial_rows ~n_replicas:w.n_replicas;
            reads = Array.of_list (List.rev recording.reads);
            wsets = Array.of_list (List.rev recording.wsets);
            latencies_us = warm.sim.latencies_us;
            events = Array.of_list (List.rev_map snd recording.events);
          }
        in
        ( warm,
          List.map
            (fun (d : Drive.drive) ->
              if d.needs inputs then begin
                Gc.compact ();
                d.run inputs
              end
              else [])
            Drive.all ))
  in
  let pairs, setups =
    passes_and_setups pairs (fun i ->
        (* Alternate which side runs first, so drift cancels. *)
        if i mod 2 = 1 then
          let u = pass ~trace:false ((2 * i) - 1) in
          (u, pass ~trace:true (2 * i))
        else
          let t = pass ~trace:true ((2 * i) - 1) in
          (pass ~trace:false (2 * i), t))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let reference = List.hd traced in
  List.iter (fun m -> fail "warm-up pass: %s" m) warm.problems;
  if { warm.sim with layer = [] } <> { reference.sim with layer = [] } then
    fail "recording pass: sim-clock results differ";
  check_passes ~reference (untraced @ traced);
  check_words untraced;
  let sim = reference.sim in
  List.iter (fun (name, unit, value) -> put name unit value) sim.layer;
  put "commit.samples" "count" (float_of_int (Array.length sim.latencies_us));
  let untraced_cpu = scaled_cpu untraced in
  put "sim.host_ns_per_event" "ns"
    (Stat.ratio untraced_cpu (float_of_int (List.hd untraced).events) *. 1e9);
  put "obs.trace_overhead_pct" "%"
    (100. *. (Stat.ratio (scaled_cpu traced) untraced_cpu -. 1.));
  put "fault.recovery_s" "s" warm.recovery_s;
  let st = reference.stages in
  put "certifier.certify_p50_ms" "ms" (stage_ms st "cert.batch" (fun s -> s.p50_us));
  put "certifier.durability_p50_ms" "ms"
    (stage_ms st "cert.durability" (fun s -> s.p50_us));
  put "proxy.apply_p50_ms" "ms" (stage_ms st "apply" (fun s -> s.p50_us));
  put "proxy.apply_p99_ms" "ms" (stage_ms st "apply" (fun s -> s.p99_us));
  List.iter
    (fun name ->
      put ("stage." ^ name ^ ".p50_ms") "ms" (stage_ms st name (fun s -> s.p50_us));
      put ("stage." ^ name ^ ".p99_ms") "ms" (stage_ms st name (fun s -> s.p99_us)))
    stage_names;
  let setup = scaled_setup setups in
  put "setup.create_s" "s" setup.create_s;
  put "setup.load_s" "s" setup.load_s;
  put "setup.settle_s" "s" setup.settle_s;
  List.iter2
    (fun (d : Drive.drive) samples ->
      let ns = List.map (fun (s : Drive.sample) -> s.ns) samples in
      let q1, q3 = Stat.quartiles ns in
      put d.ns_name "ns" (Stat.median ns);
      put (d.ns_name ^ ".q1") "ns" q1;
      put (d.ns_name ^ ".q3") "ns" q3;
      match d.words_name with
      | Some name ->
          put name "words"
            (Stat.median (List.map (fun (s : Drive.sample) -> s.words) samples))
      | None -> ())
    Drive.all drives;
  print_result sim

let () = if !trace = 0 then end_to_end () else per_layer ()
