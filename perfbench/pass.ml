(* One pass: build a cluster (timed set-up), run closed-loop clients for
   a warm-up and a measured window, drain, and check the run.

   Everything a pass reports on the simulated clock is a pure function of
   the workload and the seed. The host clock (process CPU time) and the
   allocation counter bracket only [Engine.run] over the measured window,
   so they measure the simulator and nothing of the benchmark's own
   bookkeeping outside it. *)

open Sim
module T = Tashkent
module W = Workloads

let cpu_s () = Sys.time ()

(* Words allocated so far. The runtime's allocation counters are synced
   only at collections, so empty the minor heap first: that makes the
   count exact, and starting a measurement on an empty minor heap puts
   every later collection (and hence every promotion) at the same point
   in every pass. *)
let allocated_words () =
  Gc.minor ();
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* Growable int buffer for latency samples (µs). *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

(* The run's own inputs, captured once per process (in the warm-up pass)
   for the drives to replay: keys read, writesets committed, commit
   latencies and the protocol-event stream. Capped so that memory stays
   small whatever the run length. *)
type recording = {
  mutable reads : Mvcc.Key.t list;
  mutable n_reads : int;
  mutable wsets : Mvcc.Writeset.t list;
  mutable n_wsets : int;
  mutable events : (Time.t * Obs.Events.event) list;
  mutable n_events : int;
}

let max_reads = 50_000
let max_wsets = 20_000
let max_events = 400_000

let new_recording () =
  { reads = []; n_reads = 0; wsets = []; n_wsets = 0; events = []; n_events = 0 }

(* Outcome accounting. A transaction belongs to the window when it
   starts while the window is open; it is attempted (if it updates) and
   counts as committed, aborted, or unresolved after the drain. Goodput
   and the stall gap count commits that complete inside the window. *)
type tally = {
  mutable opened : bool;
  mutable stop : bool;
  mutable attempted : int;
  mutable upd_commits : int;
  mutable cert_aborts : int;
  mutable local_aborts : int;
  mutable commits : int;  (** any kind, completed in the window *)
  mutable done_upd : int;  (** update commits completed in the window *)
  mutable last_commit : Time.t;
  gaps : Time.t array;  (** the longest gaps between commits, longest first *)
  lat : Buf.t;
}

(* The stall metric is the mean of the eight longest gaps. On the
   fault-free workloads the longest gaps are lulls in the commit stream
   whose length is an extreme value over thousands of gaps: over ten
   seeds of tpcw-api the single longest moved about 21% (interquartile
   range over median), the mean of two 15% and above 25% in one set of
   ten seeds in eleven, the mean of eight 9%. Under the fault plan the
   two failover stalls still make up most of the mean. *)
let stall_gaps = 8

let new_tally () =
  {
    opened = false;
    stop = false;
    attempted = 0;
    upd_commits = 0;
    cert_aborts = 0;
    local_aborts = 0;
    commits = 0;
    done_upd = 0;
    last_commit = Time.zero;
    gaps = Array.make stall_gaps Time.zero;
    lat = Buf.create ();
  }

let resolved t = t.upd_commits + t.cert_aborts + t.local_aborts

let note_gap t now =
  let gap = Time.diff now t.last_commit in
  let g = t.gaps in
  if Time.(gap > g.(stall_gaps - 1)) then begin
    let i = ref (stall_gaps - 1) in
    while !i > 0 && Time.(gap > g.(!i - 1)) do
      g.(!i) <- g.(!i - 1);
      decr i
    done;
    g.(!i) <- gap
  end;
  t.last_commit <- now

type outcome = Committed | Cert_aborted | Local_aborted

let settle_outcome t ~counted ~update ~started ~now = function
  | Committed ->
      if t.opened then begin
        t.commits <- t.commits + 1;
        if update then t.done_upd <- t.done_upd + 1;
        note_gap t now
      end;
      if counted then begin
        t.upd_commits <- t.upd_commits + 1;
        Buf.push t.lat (Time.to_us (Time.diff now started))
      end
  | Cert_aborted -> if counted then t.cert_aborts <- t.cert_aborts + 1
  | Local_aborted -> if counted then t.local_aborts <- t.local_aborts + 1

(* The executor a client talks to: a replica's proxy, or its partition
   router when certification is partitioned. *)
type 'tx ops = {
  begin_tx : unit -> 'tx;
  read : 'tx -> Mvcc.Key.t -> Mvcc.Value.t option;
  write : 'tx -> Mvcc.Key.t -> Mvcc.Writeset.op -> (unit, T.Proxy.failure) result;
  commit : 'tx -> (unit, T.Proxy.failure) result;
  abort : 'tx -> unit;
}

(* A closed-loop client: the same step order as Workload.Driver (think,
   generate, begin, execute CPU, body, commit), with per-transaction
   outcome and latency accounting. *)
let client_loop engine tally recording (spec : Workload.Spec.t) ~rng ~client
    ~replica_ix ~n_replicas ops ~use_cpu =
  let rec loop () =
    if not tally.stop then begin
      if not (Time.is_zero spec.think_time) then
        Engine.sleep engine (Rng.time_exponential rng ~mean:spec.think_time);
      if not tally.stop then begin
        let body = spec.new_tx ~rng ~client ~replica_ix ~n_replicas in
        let update = body.kind = Workload.Spec.Update in
        let counted = tally.opened && update in
        if counted then tally.attempted <- tally.attempted + 1;
        let started = Engine.now engine in
        let tx = ops.begin_tx () in
        use_cpu (spec.exec_cpu rng);
        let writes = ref [] in
        let ctx =
          {
            Workload.Spec.read =
              (fun key ->
                (match recording with
                | Some r when r.n_reads < max_reads ->
                    r.reads <- key :: r.reads;
                    r.n_reads <- r.n_reads + 1
                | _ -> ());
                ops.read tx key);
            write =
              (fun key op ->
                if recording <> None then writes := (key, op) :: !writes;
                match ops.write tx key op with
                | Ok () -> ()
                | Error _ -> raise Workload.Spec.Tx_failed);
            client_rng = rng;
          }
        in
        let outcome =
          match body.run ctx with
          | exception Workload.Spec.Tx_failed ->
              ops.abort tx;
              Local_aborted
          | () -> (
              match ops.commit tx with
              | Ok () -> Committed
              | Error (T.Proxy.Cert_abort _) -> Cert_aborted
              | Error (T.Proxy.Local_abort _) -> Local_aborted)
        in
        settle_outcome tally ~counted ~update ~started ~now:(Engine.now engine)
          outcome;
        (match (recording, outcome) with
        | Some r, Committed when update && r.n_wsets < max_wsets ->
            r.wsets <- Mvcc.Writeset.of_list (List.rev !writes) :: r.wsets;
            r.n_wsets <- r.n_wsets + 1
        | _ -> ());
        loop ()
      end
    end
  in
  loop ()

let spawn_clients (w : W.t) cluster spec tally recording ~seed =
  let engine = T.Cluster.engine cluster in
  let root = Rng.create (seed + 1) in
  List.iteri
    (fun replica_ix replica ->
      let rng = Rng.split root in
      let spawn_one client =
        let rng = Rng.split rng in
        let go ops =
          client_loop engine tally recording spec ~rng ~client ~replica_ix
            ~n_replicas:w.n_replicas ops
            ~use_cpu:(T.Replica.use_cpu replica)
        in
        let body () =
          if w.n_partitions > 1 then
            let s = T.Replica.session replica in
            go
              {
                begin_tx = (fun () -> T.Session.begin_tx s);
                read = T.Session.read s;
                write = T.Session.write s;
                commit = T.Session.commit s;
                abort = T.Session.abort s;
              }
          else
            let p = T.Replica.proxy replica in
            go
              {
                begin_tx = (fun () -> T.Proxy.begin_tx p);
                read = T.Proxy.read p;
                write = T.Proxy.write p;
                commit = T.Proxy.commit p;
                abort = T.Proxy.abort p;
              }
        in
        T.Replica.register_client replica
          (Engine.spawn engine
             ~name:(Printf.sprintf "%s.client%d" (T.Replica.name replica) client)
             body)
      in
      let spawn_all () =
        for client = 0 to spec.Workload.Spec.clients_per_replica - 1 do
          spawn_one client
        done
      in
      spawn_all ();
      T.Replica.set_respawn_clients replica spawn_all)
    (T.Cluster.replicas cluster)

(* ------------------------------------------------------------------ *)
(* Set-up *)

type setup = { create_s : float; load_s : float; settle_s : float }

let setup_total s = s.create_s +. s.load_s +. s.settle_s

type built = {
  cluster : T.Cluster.t;
  spec : Workload.Spec.t;
  monitor : Obs.Monitor.t option;
  setup : setup;
}

(* Create, load and settle, up to the first client. The caller collects
   the previous cluster first so that every set-up starts from the same
   heap. *)
let build (w : W.t) ~seed ~trace ~recording =
  let t0 = cpu_s () in
  let spec = w.spec () in
  let engine = Engine.create () in
  let trace = if trace then Obs.Trace.create engine else Obs.Trace.disabled () in
  let events =
    if w.monitors || recording <> None then Obs.Events.create engine
    else Obs.Events.disabled ()
  in
  (match recording with
  | Some r ->
      Obs.Events.subscribe events (fun at ev ->
          if r.n_events < max_events then begin
            r.events <- (at, ev) :: r.events;
            r.n_events <- r.n_events + 1
          end)
  | None -> ());
  let cluster =
    T.Cluster.create ~engine ~trace ~events
      (T.Cluster.config ~n_replicas:w.n_replicas ~n_certifiers:w.n_certifiers
         ~n_partitions:w.n_partitions ~replica:(w.replica spec) ~seed w.mode)
  in
  let monitor =
    if w.monitors then
      Some
        (Obs.Monitor.attach ~progress_bound:W.progress_bound
           ~metrics:(T.Cluster.metrics cluster) events)
    else None
  in
  let t1 = cpu_s () in
  T.Cluster.load_all cluster
    (spec.Workload.Spec.initial_rows ~n_replicas:w.n_replicas);
  let t2 = cpu_s () in
  T.Cluster.settle cluster;
  let t3 = cpu_s () in
  {
    cluster;
    spec;
    monitor;
    setup = { create_s = t1 -. t0; load_s = t2 -. t1; settle_s = t3 -. t2 };
  }

(* Reference calls made on each side of a timed set-up. *)
let setup_reference_calls = 2

(* A set-up between reference calls, with the CPU time of those calls.
   Each call starts on an empty minor heap, as in a pass's window. *)
let timed_setup w ~seed =
  let reference () =
    let t = ref 0. in
    for _ = 1 to setup_reference_calls do
      Gc.minor ();
      let c0 = cpu_s () in
      Reference.run ();
      t := !t +. (cpu_s () -. c0)
    done;
    !t
  in
  let r0 = reference () in
  let s = (build w ~seed ~trace:false ~recording:None).setup in
  (s, r0 +. reference ())

(* ------------------------------------------------------------------ *)
(* Cumulative per-layer counters, read at both ends of the window. *)

type probe = {
  events : int;
  msgs : int;
  dropped : int;
  requests : int;
  batches : int;
  back_certs : int;
  artificial : int;
  cert_fsyncs : int;
  cert_records : int;
  accepts : int;
  accept_entries : float;
  remote_ws : int;
  art_serial : int;
  apply_stalls : int;
  rep_fsyncs : int;
  rep_records : int;
  emitted : int;
  x_commits : int;
  x_aborts : int;
}

let hosted_proxies cluster =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun part -> T.Replica.proxy_of r ~part)
        (T.Replica.partitions r))
    (T.Cluster.replicas cluster)

let hosted_dbs cluster =
  List.concat_map
    (fun r ->
      List.filter_map (fun part -> T.Replica.db_of r ~part) (T.Replica.partitions r))
    (T.Cluster.replicas cluster)

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let avgf f = function [] -> 0. | xs -> sumf f xs /. float_of_int (List.length xs)

let probe cluster =
  let net = T.Cluster.network cluster in
  let certs = List.map T.Certifier.stats (T.Cluster.certifiers cluster) in
  let proxies = List.map T.Proxy.stats (hosted_proxies cluster) in
  let wals = List.map Mvcc.Db.wal (hosted_dbs cluster) in
  let sessions =
    List.map
      (fun r -> T.Session.stats (T.Replica.session r))
      (T.Cluster.replicas cluster)
  in
  let c f = sum f certs and p f = sum f proxies in
  {
    events = Engine.events_processed (T.Cluster.engine cluster);
    msgs = Net.Network.messages_sent net;
    dropped = Net.Network.messages_dropped net;
    requests = c (fun s -> s.requests);
    batches = c (fun s -> s.cert_batches);
    back_certs = c (fun s -> s.back_certifications);
    artificial = c (fun s -> s.artificial_conflicts);
    cert_fsyncs = c (fun s -> s.log_fsyncs);
    cert_records = c (fun s -> s.log_records);
    accepts = c (fun s -> s.accept_broadcasts);
    accept_entries =
      sumf
        (fun (s : T.Certifier.stats) ->
          s.mean_accept_batch *. float_of_int s.accept_broadcasts)
        certs;
    remote_ws = p (fun s -> s.remote_ws_applied);
    art_serial = p (fun s -> s.artificial_serializations);
    apply_stalls = p (fun s -> s.apply_stalls);
    rep_fsyncs = sum Storage.Wal.sync_count wals;
    rep_records = sum Storage.Wal.records_synced wals;
    emitted = Obs.Events.emitted (T.Cluster.events cluster);
    x_commits = sum (fun (s : T.Session.stats) -> s.cross_commits) sessions;
    x_aborts = sum (fun (s : T.Session.stats) -> s.cross_aborts) sessions;
  }

(* ------------------------------------------------------------------ *)
(* A pass *)

(* What a pass reports on the simulated clock: identical for every pass
   of one seed, traced or not. *)
type sim = {
  commits : int;
  attempted : int;
  upd_commits : int;
  cert_aborts : int;
  local_aborts : int;
  unresolved : int;
  latencies_us : int array;
  gaps : Time.t array;
  window : Time.t;
  layer : (string * string * float) list;  (** name, unit, value *)
}

type t = {
  setup : setup;
  cpu_s : float;  (** host CPU over the measured window *)
  ref_s : float;  (** CPU of the [slices] reference calls made alongside *)
  words : float;  (** words allocated over the measured window *)
  events : int;  (** engine events over the measured window *)
  sim : sim;
  stages : (string * Obs.Trace.stage_stats) list;
  problems : string list;
  recovery_s : float;  (** from the recorded event stream; 0 otherwise *)
  peak_live_words : int;  (** 0 unless the pass sampled its heap *)
}

(* Longest time from a certifier crash to its group's next commit
   verdict, read from the recorded event stream. *)
let recovery_s cluster events =
  let part_of = Hashtbl.create 16 in
  List.iter
    (fun (part, certs) ->
      List.iter (fun c -> Hashtbl.replace part_of (T.Certifier.id c) part) certs)
    (T.Cluster.certifier_groups cluster);
  let down = Hashtbl.create 4 and worst = ref 0. in
  List.iter
    (fun (at, ev) ->
      match ev with
      | Obs.Events.Node_crash { actor } -> (
          match Hashtbl.find_opt part_of actor with
          | Some part when not (Hashtbl.mem down part) -> Hashtbl.replace down part at
          | _ -> ())
      | Obs.Events.Verdict { part; committed = true; _ } -> (
          match Hashtbl.find_opt down part with
          | Some since ->
              worst := Float.max !worst (Time.to_sec (Time.diff at since));
              Hashtbl.remove down part
          | None -> ())
      | _ -> ())
    events;
  !worst

(* The window runs in [slices] equal slices of simulated time, each
   followed by one timed call of the reference kernel, so that the
   window's CPU time comes with a reading of the machine's speed taken
   all along it. *)
let slices = 200

(* Words one reference call allocates, taken out of the window's count. *)
let reference_words =
  let w0 = allocated_words () in
  Reference.run ();
  allocated_words () -. w0

(* Live heap after a full collection at the end of each quarter of the
   window: a deterministic peak of the simulation's memory, unlike the
   process's top heap size, which depends on where GC cycles fall. *)
let heap_quarters = 4

let run (w : W.t) ~seed ~trace ~recording ~sample_heap =
  Gc.compact ();
  let b = build w ~seed ~trace ~recording in
  let cluster = b.cluster in
  let engine = T.Cluster.engine cluster in
  let run_for span = Engine.run ~until:(Time.add (Engine.now engine) span) engine in
  let faults = w.plan <> [] in
  if faults then List.iter T.Proxy.enable_commit_journal (hosted_proxies cluster);
  let tally = new_tally () in
  spawn_clients w cluster b.spec tally recording ~seed;
  run_for w.warmup;
  let injector = if faults then Some (Fault.inject cluster w.plan) else None in
  Obs.Trace.reset (T.Cluster.trace cluster);
  let start = Engine.now engine in
  tally.opened <- true;
  tally.last_commit <- start;
  let p0 = probe cluster in
  let words0 = allocated_words () in
  let sim_cpu = ref 0. and ref_cpu = ref 0. in
  let peak_live_words = ref 0 in
  for k = 1 to slices do
    let c0 = cpu_s () in
    Engine.run ~until:(Time.add start (Time.div (Time.mul w.window k) slices)) engine;
    (* Inside the slice's time: the reference call starts on an empty
       minor heap. *)
    Gc.minor ();
    let c1 = cpu_s () in
    Reference.run ();
    let c2 = cpu_s () in
    sim_cpu := !sim_cpu +. (c1 -. c0);
    ref_cpu := !ref_cpu +. (c2 -. c1);
    if sample_heap && k mod (slices / heap_quarters) = 0 then begin
      Gc.full_major ();
      peak_live_words := max !peak_live_words (Gc.stat ()).live_words
    end
  done;
  let words1 = allocated_words () -. (float_of_int slices *. reference_words) in
  let p1 = probe cluster in
  tally.opened <- false;
  note_gap tally (Engine.now engine);
  let window = Time.diff (Engine.now engine) start in
  let stages = Obs.Trace.all_stage_stats (T.Cluster.trace cluster) in
  (* Drain: no new transactions; wait for the window's transactions and
     the fault plan to settle, then check the run. *)
  tally.stop <- true;
  let deadline = Time.add (Engine.now engine) (Time.sec 30) in
  let rec drain () =
    let quiet =
      resolved tally = tally.attempted
      && match injector with None -> true | Some i -> Fault.quiescent i
    in
    if (not quiet) && Time.(Engine.now engine < deadline) then begin
      run_for (Time.of_ms 100.);
      drain ()
    end
  in
  drain ();
  run_for (Time.sec 1);
  let problems = ref [] in
  List.iter
    (function
      | _, Ok () -> ()
      | name, Error msg -> problems := Printf.sprintf "%s: %s" name msg :: !problems)
    (Checks.run cluster ~faults);
  (match b.monitor with
  | Some m ->
      Obs.Monitor.finalize m ~now:(Engine.now engine);
      List.iter
        (fun v ->
          problems :=
            Format.asprintf "monitor %a" Obs.Monitor.pp_violation v :: !problems)
        (Obs.Monitor.violations m)
  | None -> ());
  let fault = Option.map Fault.stats injector in
  (match (w.plan, fault) with
  | _ :: _, Some f when f.Fault.crashes < 2 || f.Fault.recoveries < 2 ->
      problems :=
        Printf.sprintf "fault plan did not run: %d crashes, %d recoveries"
          f.Fault.crashes f.Fault.recoveries
        :: !problems
  | _ -> ());
  (* Window deltas of cumulative counters (a crash can reset a node's
     counters, hence the clamp), and per-window ratios. *)
  let d f = float_of_int (max 0 (f p1 - f p0)) in
  let count n = float_of_int n in
  let per_commit x = Stat.ratio x (count tally.commits) in
  let per_update x = Stat.ratio x (count tally.done_upd) in
  let of_attempted n = Stat.pct (count n) (count tally.attempted) in
  let leaders = List.map T.Certifier.stats (T.Cluster.leaders cluster) in
  let leader_avg f = avgf f leaders in
  let replicas = T.Cluster.replicas cluster in
  let proxies = hosted_proxies cluster in
  let client_sum f = count (sum (fun p -> f (T.Proxy.client p)) proxies) in
  let fault_count f = count (match fault with Some s -> f s | None -> 0) in
  let x_commits = d (fun p -> p.x_commits) and x_aborts = d (fun p -> p.x_aborts) in
  let store_versions =
    sum (fun db -> Mvcc.Store.version_records (Mvcc.Db.store db)) (hosted_dbs cluster)
  in
  let layer =
    [
      ("sim.events_per_commit", "ratio", per_commit (d (fun p -> p.events)));
      ("net.msgs_per_commit", "ratio", per_commit (d (fun p -> p.msgs)));
      ("net.drop_pct", "%", Stat.pct (d (fun p -> p.dropped)) (d (fun p -> p.msgs)));
      ( "storage.cert_recs_per_fsync",
        "ratio",
        Stat.ratio (d (fun p -> p.cert_records)) (d (fun p -> p.cert_fsyncs)) );
      ("storage.cert_disk_util", "ratio", leader_avg (fun s -> s.disk_utilization));
      ( "storage.replica_recs_per_fsync",
        "ratio",
        Stat.ratio (d (fun p -> p.rep_records)) (d (fun p -> p.rep_fsyncs)) );
      ( "storage.replica_fsyncs_per_commit",
        "ratio",
        per_update (d (fun p -> p.rep_fsyncs)) );
      ( "storage.replica_disk_util",
        "ratio",
        avgf (fun r -> Storage.Disk.utilization (T.Replica.log_disk r)) replicas );
      ("mvcc.local_abort_pct", "%", of_attempted tally.local_aborts);
      ( "mvcc.replica_cpu_util",
        "ratio",
        avgf (fun r -> Resource.utilization (T.Replica.cpu r)) replicas );
      ("mvcc.store_versions", "count", count store_versions);
      ( "paxos.entries_per_accept",
        "ratio",
        Stat.ratio (p1.accept_entries -. p0.accept_entries) (d (fun p -> p.accepts)) );
      ("paxos.accepts_per_commit", "ratio", per_update (d (fun p -> p.accepts)));
      ( "certifier.reqs_per_batch",
        "ratio",
        Stat.ratio (d (fun p -> p.requests)) (d (fun p -> p.batches)) );
      ("certifier.cpu_util", "ratio", leader_avg (fun s -> s.cpu_utilization));
      ("certifier.ww_abort_pct", "%", of_attempted tally.cert_aborts);
      ( "certifier.back_certs_per_commit",
        "ratio",
        per_update (d (fun p -> p.back_certs)) );
      ( "certifier.artificial_conflict_pct",
        "%",
        Stat.pct (d (fun p -> p.artificial)) (d (fun p -> p.remote_ws)) );
      ("proxy.remote_ws_per_commit", "ratio", per_update (d (fun p -> p.remote_ws)));
      ("proxy.artificial_serializations", "count", d (fun p -> p.art_serial));
      ("proxy.bridge_heals", "count", count (sum T.Proxy.bridge_heals proxies));
      ("apply_pool.parallelism", "ratio", avgf T.Proxy.apply_parallelism proxies);
      ("apply_pool.stalls", "count", d (fun p -> p.apply_stalls));
      ("cert_client.retries", "count", client_sum T.Cert_client.retries);
      ("cert_client.failovers", "count", client_sum T.Cert_client.failovers);
      ("session.cross_commit_pct", "%", Stat.pct x_commits (count tally.done_upd));
      ("session.cross_abort_pct", "%", Stat.pct x_aborts (x_commits +. x_aborts));
      ("obs.events_per_commit", "ratio", per_commit (d (fun p -> p.emitted)));
      ("fault.crashes", "count", fault_count (fun s -> s.Fault.crashes));
      ("fault.recoveries", "count", fault_count (fun s -> s.Fault.recoveries));
    ]
  in
  {
    setup = b.setup;
    cpu_s = !sim_cpu;
    ref_s = !ref_cpu;
    words = words1 -. words0;
    events = p1.events - p0.events;
    sim =
      {
        commits = tally.commits;
        attempted = tally.attempted;
        upd_commits = tally.upd_commits;
        cert_aborts = tally.cert_aborts;
        local_aborts = tally.local_aborts;
        unresolved = tally.attempted - resolved tally;
        latencies_us = Buf.contents tally.lat;
        gaps = tally.gaps;
        window;
        layer;
      };
    stages;
    problems = List.rev !problems;
    peak_live_words = !peak_live_words;
    recovery_s =
      (match recording with
      | Some r -> recovery_s cluster (List.rev r.events)
      | None -> 0.);
  }
