(* Drives: host cost per call into one layer's public function, replaying
   the inputs the run itself produced (Pass.recording). Each drive runs
   one discarded warm-up batch and then [batches] timed batches; a batch
   repeats its input cyclically up to a fixed call count, so a batch
   lasts tens of milliseconds and its CPU time is well above the clock's
   resolution. Untimed preparation (a fresh store or log, preloaded) is
   redone per batch where the timed calls mutate it. *)

open Sim
module T = Tashkent

type sample = { ns : float; words : float }

let batches = 11

(* [prepare ()] builds a batch's state and returns the timed work, which
   performs [calls] calls. *)
let batches_of ~calls prepare =
  List.init (batches + 1) (fun _ ->
      let work = prepare () in
      let w0 = Pass.allocated_words () in
      let c0 = Pass.cpu_s () in
      work ();
      let c1 = Pass.cpu_s () in
      let w1 = Pass.allocated_words () in
      let n = float_of_int calls in
      { ns = (c1 -. c0) *. 1e9 /. n; words = (w1 -. w0) /. n })
  |> List.tl

(* Repeat [f] over [input] cyclically, [calls] times in all. *)
let cycle input calls f =
  let n = Array.length input in
  for i = 0 to calls - 1 do
    f i input.(i mod n)
  done

type inputs = {
  spec : unit -> Workload.Spec.t;
  seed : int;
  n_replicas : int;
  rows : (Mvcc.Key.t * Mvcc.Value.t) list;
  reads : Mvcc.Key.t array;
  wsets : Mvcc.Writeset.t array;
  latencies_us : int array;
  events : Obs.Events.event array;
}

let preloaded rows =
  let s = Mvcc.Store.create () in
  List.iter (fun (k, v) -> Mvcc.Store.preload s k v) rows;
  s

(* Engine: schedule one callback per recorded commit latency, run them. *)
let engine_schedule_run inp =
  let calls = 50_000 in
  batches_of ~calls (fun () ->
      let e = Engine.create () in
      fun () ->
        cycle inp.latencies_us calls (fun _ us ->
            Engine.schedule_after e (Time.of_us us) ignore);
        Engine.run e)

(* Workload generator: replay the run's clients' generator streams (the
   same RNG splits as Pass.spawn_clients), executing each body against a
   table of the initial rows. *)
let workload_gen inp =
  let table = Mvcc.Key.Tbl.create 1024 in
  List.iter (fun (k, v) -> Mvcc.Key.Tbl.replace table k v) inp.rows;
  let per_client = 200 in
  let clients = (inp.spec ()).Workload.Spec.clients_per_replica in
  let calls = per_client * clients * inp.n_replicas in
  batches_of ~calls (fun () ->
      let spec = inp.spec () in
      let root = Rng.create (inp.seed + 1) in
      let streams =
        List.init inp.n_replicas (fun replica_ix ->
            let rng = Rng.split root in
            List.init clients (fun client -> (replica_ix, client, Rng.split rng)))
        |> List.concat
      in
      fun () ->
        List.iter
          (fun (replica_ix, client, rng) ->
            let ctx =
              {
                Workload.Spec.read = Mvcc.Key.Tbl.find_opt table;
                write = (fun _ _ -> ());
                client_rng = rng;
              }
            in
            for _ = 1 to per_client do
              if not (Time.is_zero spec.think_time) then
                ignore (Rng.time_exponential rng ~mean:spec.think_time);
              let body =
                spec.new_tx ~rng ~client ~replica_ix ~n_replicas:inp.n_replicas
              in
              ignore (spec.exec_cpu rng);
              body.run ctx
            done)
          streams)

(* A store holding the initial rows plus every recorded writeset. *)
let store_read inp =
  let s = preloaded inp.rows in
  Array.iteri (fun i ws -> Mvcc.Store.install s ~version:(i + 1) ws) inp.wsets;
  let at = Mvcc.Store.current_version s in
  let calls = 200_000 in
  batches_of ~calls (fun () () ->
      cycle inp.reads calls (fun _ k -> ignore (Mvcc.Store.read s ~at k)))

let store_install inp =
  let calls = Array.length inp.wsets in
  batches_of ~calls (fun () ->
      let s = preloaded inp.rows in
      fun () ->
        Array.iteri (fun i ws -> Mvcc.Store.install s ~version:(i + 1) ws) inp.wsets)

let writeset_intersect inp =
  let n = Array.length inp.wsets in
  let calls = 500_000 in
  batches_of ~calls (fun () () ->
      cycle inp.wsets calls (fun i ws ->
          ignore (Mvcc.Writeset.intersects ws inp.wsets.((i + 1) mod n))))

let entry i ws =
  {
    T.Types.version = i + 1;
    origin = "replica0";
    req_id = i;
    ws;
    gc_floor = 0;
    xa = None;
  }

let cert_log_append inp =
  let calls = 50_000 in
  let n = Array.length inp.wsets in
  let entries = Array.init calls (fun i -> entry i inp.wsets.(i mod n)) in
  batches_of ~calls (fun () ->
      let log = T.Cert_log.create () in
      fun () -> Array.iter (T.Cert_log.append log) entries)

(* Certification window: each request certifies against the newest
   [window] entries of a log holding every recorded writeset. *)
let window = 32

let cert_log_certify inp =
  let log = T.Cert_log.create () in
  Array.iteri (fun i ws -> T.Cert_log.append log (entry i ws)) inp.wsets;
  let start_version = max 0 (T.Cert_log.version log - window) in
  let calls = 200_000 in
  batches_of ~calls (fun () () ->
      cycle inp.wsets calls (fun _ ws ->
          ignore (T.Cert_log.certify log ws ~start_version)))

(* Monitors: replay the recorded protocol events into fresh monitors. *)
let monitor_replay inp =
  let calls = min 100_000 (Array.length inp.events) in
  batches_of ~calls (fun () ->
      let events = Obs.Events.create (Engine.create ()) in
      ignore (Obs.Monitor.attach ~progress_bound:Workloads.progress_bound events);
      fun () ->
        for i = 0 to calls - 1 do
          Obs.Events.emit events inp.events.(i)
        done)

type drive = {
  ns_name : string;
  words_name : string option;
  needs : inputs -> bool;  (** the run recorded the input this drive replays *)
  run : inputs -> sample list;
}

let has a = Array.length a > 0

let all =
  [
    {
      ns_name = "sim.engine.schedule_run_ns";
      words_name = Some "sim.engine.schedule_run_words";
      needs = (fun i -> has i.latencies_us);
      run = engine_schedule_run;
    };
    {
      ns_name = "workload.gen_ns";
      words_name = Some "workload.gen_words";
      needs = (fun _ -> true);
      run = workload_gen;
    };
    {
      ns_name = "mvcc.store.read_ns";
      words_name = Some "mvcc.store.read_words";
      needs = (fun i -> has i.reads);
      run = store_read;
    };
    {
      ns_name = "mvcc.store.install_ns";
      words_name = Some "mvcc.store.install_words";
      needs = (fun i -> has i.wsets);
      run = store_install;
    };
    {
      ns_name = "mvcc.writeset.intersect_ns";
      words_name = None;
      needs = (fun i -> has i.wsets);
      run = writeset_intersect;
    };
    {
      ns_name = "cert_log.certify_ns";
      words_name = Some "cert_log.certify_words";
      needs = (fun i -> has i.wsets);
      run = cert_log_certify;
    };
    {
      ns_name = "cert_log.append_ns";
      words_name = Some "cert_log.append_words";
      needs = (fun i -> has i.wsets);
      run = cert_log_append;
    };
    {
      ns_name = "obs.monitor_ns_per_event";
      words_name = None;
      needs = (fun i -> has i.events);
      run = monitor_replay;
    };
  ]
