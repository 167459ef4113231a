(* The three benchmark workloads. Each is a fixed topology, a workload
   profile and a fault plan; nothing here depends on the host. Why each
   one exists is recorded in NOTES.md. *)

open Sim
module T = Tashkent

type t = {
  name : string;
  mode : T.Types.mode;
  n_replicas : int;
  n_certifiers : int;  (** per certifier group *)
  n_partitions : int;
  spec : unit -> Workload.Spec.t;
      (** a fresh profile per pass: profiles carry per-client counters *)
  replica : Workload.Spec.t -> T.Replica.config;
  monitors : bool;  (** the five online protocol monitors, on the live stream *)
  plan : Fault.plan;  (** injected at the start of the measured window *)
  warmup : Time.t;
  window : Time.t;
  pass_cost_s : float;
      (** host seconds charged per pass in converting [--seconds] into a
          fixed pass count: what set-up, warm-up, window and drain took
          on the reference machine, a 2-core x86-64 container. The state
          checks after each pass and the set-up samples are not charged,
          so a run lasts 1.2-2.5 times [--seconds]. *)
  setup_batch : int;
      (** set-ups run back to back in one set-up sample's process, so
          that a sample takes a few hundred milliseconds *)
}

(* Performance runs take no periodic dumps (as in Harness.Experiment). *)
let perf_replica mode ~apply_workers (spec : Workload.Spec.t) =
  {
    (T.Replica.default_config mode) with
    T.Replica.io = T.Replica.Shared_io;
    mw_recovery = T.Replica.Dump_based { interval = Time.sec 1_000_000 };
    page_read_miss = spec.page_read_miss;
    page_writeback_per_op = spec.page_writeback_per_op;
    bg_page_writes_per_sec = spec.bg_page_writes_per_sec;
    db_size_bytes = spec.db_size_bytes;
    staleness_bound = Some (Time.sec 1);
    apply_workers;
    gc_interval = Some (Time.sec 30);
  }

let tpcb_mw =
  {
    name = "tpcb-mw";
    mode = T.Types.Tashkent_mw;
    n_replicas = 8;
    n_certifiers = 3;
    n_partitions = 1;
    spec = (fun () -> Workload.Tpcb.profile ());
    replica = perf_replica T.Types.Tashkent_mw ~apply_workers:1;
    monitors = false;
    plan = [];
    warmup = Time.sec 1;
    window = Time.sec 12;
    pass_cost_s = 3.2;
    setup_batch = 1;
  }

let tpcw_api =
  {
    name = "tpcw-api";
    mode = T.Types.Tashkent_api;
    n_replicas = 15;
    n_certifiers = 3;
    n_partitions = 1;
    spec = (fun () -> Workload.Tpcw.profile ());
    replica = perf_replica T.Types.Tashkent_api ~apply_workers:1;
    monitors = false;
    plan = [];
    warmup = Time.sec 2;
    window = Time.sec 120;
    pass_cost_s = 2.8;
    setup_batch = 4;
  }

(* The chaos harness's partitioned configuration (Harness.Chaos_exp with
   [n_partitions = 2]): Partlocal with a third of the transactions
   spanning both groups, routed through each replica's Session. The
   certifier count, applier count, vacuum period and progress deadline
   are read from the harness's defaults; the workload profile and
   staleness bound are set inside [Chaos_exp.run] itself and are
   repeated here. The harness's default is one applier: with a parallel
   applier ([apply_workers > 1]) about one seed in ten makes the
   serial-order monitor report a writeset installed twice during a
   certifier-group failover (NOTES.md, "Known defect"). *)
module C = Harness.Chaos_exp

let chaos = C.default_config ()

let part2_chaos =
  {
    name = "part2-chaos";
    mode = chaos.C.mode;
    n_replicas = 4;
    n_certifiers = chaos.C.n_certifiers;
    n_partitions = 2;
    spec =
      (fun () -> Workload.Partlocal.profile ~partitions:2 ~cross_ratio:0.33 ());
    replica =
      (fun _ ->
        {
          (T.Replica.default_config chaos.C.mode) with
          T.Replica.staleness_bound = Some (Time.sec 1);
          apply_workers = chaos.C.apply_workers;
          gc_interval = chaos.C.gc_interval;
        });
    monitors = true;
    plan = C.scripted_partition_plan ();
    warmup = Time.sec 1;
    (* The plan ends with its final heal at 14.5 s; the rest of the
       window runs fault-free. How much a leader crash slows its group
       depends on the seed, so in a 15 s window goodput moved 6-15%
       (interquartile range over median of ten seeds); in 40 s, 4%.
       The update transactions that wait out a failover are 0.5-0.8% of
       a 40 s window's, so p99 stays in the fault-free tail (~80 ms); at
       about 1% (a 20-30 s window) it flips between ~90 ms and ~540 ms
       from seed to seed. *)
    window = Time.sec 40;
    pass_cost_s = 10.0;
    setup_batch = 15;
  }

let all = [ tpcb_mw; tpcw_api; part2_chaos ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The chaos harness's progress deadline. *)
let progress_bound = chaos.C.progress_bound
