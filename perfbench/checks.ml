(* End-of-pass state checks. The log, consistency and cross-atomicity
   checks are the cluster's own; waiting until the cluster is checkable
   and the durability check follow Harness.Chaos_exp's [check], which the
   harness does not export. *)

open Sim
module T = Tashkent

(* Every (replica, hosted partition) pair, with that partition's proxy
   and database. *)
let hosted_pairs cluster ~part =
  List.filter_map
    (fun r ->
      match (T.Replica.proxy_of r ~part, T.Replica.db_of r ~part) with
      | Some proxy, Some db -> Some (r, proxy, db)
      | _ -> None)
    (T.Cluster.replicas cluster)

(* Highest commit version of [part] acked durable to any of its proxies. *)
let max_acked cluster ~part =
  List.fold_left
    (fun acc (_, proxy, _) ->
      let acc =
        List.fold_left (fun acc (_, v) -> max acc v) acc
          (T.Proxy.journaled_commits proxy)
      in
      List.fold_left (fun acc (_, v) -> max acc v) acc
        (T.Proxy.journaled_cross_commits proxy))
    0 (hosted_pairs cluster ~part)

(* Run until every group has a leader whose log has caught up with every
   acked commit and every up replica of its partition (at most 10 s sim):
   a freshly elected leader can briefly trail while redelivery completes. *)
let wait_checkable cluster =
  let engine = T.Cluster.engine cluster in
  let deadline = Time.add (Engine.now engine) (Time.sec 10) in
  let group_ready part =
    match T.Cluster.group_leader cluster ~part with
    | None -> false
    | Some lead ->
        let lv = T.Certifier.system_version lead in
        lv >= max_acked cluster ~part
        && List.for_all
             (fun (r, _, db) ->
               (not (T.Replica.is_up r))
               || Mvcc.Store.current_version (Mvcc.Db.store db) <= lv)
             (hosted_pairs cluster ~part)
  in
  let ready () =
    List.for_all (fun (part, _) -> group_ready part) (T.Cluster.certifier_groups cluster)
  in
  while (not (ready ())) && Time.(Engine.now engine < deadline) do
    Engine.run ~until:(Time.add (Engine.now engine) (Time.of_ms 100.)) engine
  done

(* Every commit acked durable to a proxy is still in its group leader's
   certified log, at its acked version with its origin and request (or,
   below the GC floor, in the never-pruned decided table); every acked
   cross-partition commit is recorded committed at its version. *)
let durability cluster =
  let missing = ref [] in
  List.iter
    (fun (part, _) ->
      match T.Cluster.group_leader cluster ~part with
      | None -> missing := Printf.sprintf "p%d has no leader" part :: !missing
      | Some lead ->
          let log = T.Certifier.log lead in
          let top = T.Cert_log.version log and floor = T.Cert_log.floor log in
          List.iter
            (fun (_, proxy, _) ->
              let origin = T.Proxy.addr proxy in
              List.iter
                (fun (req_id, version) ->
                  let present =
                    version >= 1 && version <= top
                    &&
                    if version <= floor then
                      T.Certifier.decided_version lead ~req_id = Some version
                    else
                      let e = T.Cert_log.get log version in
                      String.equal e.T.Types.origin origin && e.req_id = req_id
                  in
                  if not present then
                    missing :=
                      Printf.sprintf "commit acked to %s (req %d, v%d) missing from p%d"
                        origin req_id version part
                      :: !missing)
                (T.Proxy.journaled_commits proxy);
              List.iter
                (fun (gtx, version) ->
                  match T.Certifier.x_outcome lead ~gtx with
                  | Some (Some v) when v = version -> ()
                  | _ ->
                      missing :=
                        Format.asprintf
                          "cross-commit %a acked to %s at v%d not committed in p%d"
                          T.Types.pp_gtx gtx origin version part
                        :: !missing)
                (T.Proxy.journaled_cross_commits proxy))
            (hosted_pairs cluster ~part))
    (T.Cluster.certifier_groups cluster);
  match List.rev !missing with
  | [] -> Ok ()
  | m :: rest -> Error (Printf.sprintf "%s (%d more)" m (List.length rest))

(* Every check, as [(name, result)]; [faults] adds the wait and the
   durability check that only a run under a fault plan needs. *)
let run cluster ~faults =
  if faults then wait_checkable cluster;
  [
    ("log invariants", T.Cluster.check_log_invariants cluster);
    ("consistency", T.Cluster.check_consistency cluster);
    ("cross atomicity", T.Cluster.check_cross_atomicity cluster);
  ]
  @ if faults then [ ("durability", durability cluster) ] else []
