(* The traced replay: the workload's graph, reads and plan deltas fed
   in-process, from this one domain, through each layer's public entry
   point in turn — Repl.request (net), Proto.exec (proto),
   Service.query (serve), and the compute underneath (routing, graph);
   Repair.apply (dynamic), Wal.append / Store.append / Store.recover
   (store), and the view build the service publishes after each batch.

   Every call is recorded as a span (name, start, end, logical parent,
   request id), kept in memory and written as JSONL at the end. A
   layer's self time is its median minus the median of the layer it
   calls, so the medians of one request kind chain from the wire down
   to the compute. The program is not instrumented; the only
   registry reads are the existing repair/apply profile subtree and
   the wal/fsync_latency histogram. *)

open Stats
open Rs_graph
module Delta = Rs_dynamic.Delta
module Repair = Rs_dynamic.Repair
module Store = Rs_store.Store
module Wal = Rs_store.Wal
module Service = Rs_serve.Service
module Repl = Rs_net.Repl
module Proto = Rs_net.Proto
module Link_state = Rs_routing.Link_state
module Obs = Rs_obs.Obs
module Json = Rs_obs.Json

type span = { id : int; name : string; t0 : float; t1 : float; parent : int; req : int }

type layers = {
  metrics : metric list;
  medians : (string, sample) Hashtbl.t;
  escalations : int;  (* ladder rungs Repair.apply climbed over the plan; must be 0 *)
}

let layer l name = match Hashtbl.find_opt l.medians name with Some s -> values s | None -> [||]

(* Median, in ms, of a recorded layer. *)
let get l name = median (layer l name)

(* Self time of [parent] over the layer it calls, in ms: the median of
   per-request differences (both layers saw the same requests, in the
   same order), so the compute the two share cancels request by request. *)
let self l parent child =
  let a = layer l parent and b = layer l child in
  median (Array.init (min (Array.length a) (Array.length b)) (fun i -> a.(i) -. b.(i)))

type recorder = {
  mutable spans : span list;
  mutable next_id : int;
  samples : (string, sample) Hashtbl.t;  (* ms per call, by layer name *)
}

let sample_of r name =
  match Hashtbl.find_opt r.samples name with
  | Some s -> s
  | None ->
      let s = sample () in
      Hashtbl.add r.samples name s;
      s

(* Run [f] as one span; its duration (ms) joins the layer's sample. A
   call that takes a few clock ticks (1 us) runs [reps] times in its
   span and joins the sample as their mean, so its value is not stuck
   on a multiple of the tick. *)
let timed r ?(parent = 0) ?(req = 0) ?(reps = 1) name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let t0 = Wire.now () in
  for _ = 2 to reps do ignore (f ()) done;
  let v = f () in
  let t1 = Wire.now () in
  r.spans <- { id; name; t0; t1; parent; req } :: r.spans;
  add (sample_of r name) ((t1 -. t0) *. 1000. /. float_of_int reps);
  (v, id)

let write_spans r file =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity r.spans in
  let us t = Json.Float (Float.round ((t -. origin) *. 1e7) /. 10.) in
  Out_channel.with_open_bin file (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [ ("id", Json.Int s.id); ("name", Json.String s.name); ("start_us", us s.t0);
                    ("end_us", us s.t1); ("parent", Json.Int s.parent); ("req", Json.Int s.req) ]));
          output_char oc '\n')
        (List.rev r.spans))

let spec = Repair.Gdy_k { k = 1 }

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let snapshot_file dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rsnap")
  |> List.sort compare |> List.rev
  |> function
  | f :: _ -> Filename.concat dir f
  | [] -> failwith ("no snapshot in " ^ dir)

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* Repeat [f] while under [count] calls, or under [budget] seconds and
   [min_count] calls. *)
let repeat ~count ~min_count ~budget f =
  let t0 = Wire.now () in
  let i = ref 0 in
  while !i < count && (!i < min_count || Wire.now () -. t0 < budget) do
    f !i;
    incr i
  done

let run ~smoke ~seed ~mix ~(topo : Inputs.topo) ~graph ~work ~spans =
  let r = { spans = []; next_id = 1; samples = Hashtbl.create 64 } in
  let big = topo.n > 5000 in
  let reps = if big || smoke then 1 else 3 in
  let budget s = if smoke then s /. 10. else s in
  let t name f = fst (timed r name f) in
  (* Set-up layers. *)
  for _ = 1 to reps do ignore (t "graph/load" (fun () -> Graph_io.load graph)) done;
  let g = topo.g in
  let init () = t "dynamic/init" (fun () -> Repair.init spec g) in
  let rs = ref (init ()) in
  for _ = 2 to reps do rs := init () done;
  for _ = 1 to reps do
    ignore
      (t "core/sharded_build" (fun () ->
           Rs_core.Sharded.build ~domains:1 g (Rs_core.Sharded.Gdy_k { k = 1 })))
  done;
  let dir i = Filename.concat work (Printf.sprintf "replay%d.wal" i) in
  let create dir = t "store/create" (fun () -> Store.create ~policy:Wal.Always ~dir ~specs:[ spec ] g) in
  for i = 1 to reps - 1 do Store.close (create (dir i)) done;
  let dir = dir reps in
  let store = create dir in
  let snapshot_bytes = file_size (snapshot_file dir) in
  (* Reads, through every layer of an in-process leader. *)
  let svc =
    Service.start
      { Service.default_config with readers = 2; ingest_capacity = 256; request_capacity = 256 }
      (Service.Durable store)
  in
  let env = Proto.leader_env svc in
  let ld = ok_or_fail (Repl.lead ~service:svc ~store_dir:(Some dir) ~host:"127.0.0.1" ~port:0 ()) in
  let port = Repl.leader_port ld in
  let fd = ok_or_fail (Repl.connect_query ~host:"127.0.0.1" ~port ~timeout_s:10.) in
  let request line = ok_or_fail (Repl.request fd ~timeout_s:30. line) in
  let vg, vsp =
    match Service.peek svc with vg, [ (_, sp) ] -> (vg, sp) | _ -> failwith "one spanner expected"
  in
  let ls = Link_state.make vg vsp in
  let vadj = Edge_set.to_adjacency vsp and vh = Edge_set.to_graph vsp in
  let st = Inputs.stream ~seed ~salt:23 in
  let bytes = Hashtbl.create 4 in
  let hops = sample () in
  let req_id = ref 0 in
  List.iter
    (fun (kind, budget_s) ->
      let k = Inputs.kind_name kind in
      let b = sample () in
      Hashtbl.replace bytes kind b;
      (* At n=20000 a route or paths call takes 0.2 s in each of the
         four layers: three of each are enough there. *)
      repeat ~count:300 ~min_count:(if big then 3 else 10) ~budget:(budget budget_s) (fun _ ->
          incr req_id;
          let req = !req_id in
          let rd = Inputs.draw_read st topo [ (1.0, kind) ] in
          (* Readers poll their queue every 1 ms when idle: start each
             queued call at a random phase of that cycle, as an open-loop
             arrival would, so no layer systematically pays the wait. *)
          let dephase () = Unix.sleepf (Random.State.float st.st 0.002) in
          dephase ();
          let reply, net = timed r ~req ("net/request/" ^ k) (fun () -> request rd.line) in
          add b (float_of_int (Wire.frame_bytes ~line:rd.line ~reply));
          dephase ();
          let _, exec =
            timed r ~parent:net ~req ("proto/exec/" ^ k) (fun () -> Proto.exec env rd.line)
          in
          dephase ();
          let q =
            match kind with
            | Inputs.Route -> Service.Route { src = rd.a; dst = rd.b }
            | Paths -> Service.Paths { src = rd.a; dst = rd.b; k = 2 }
            | Advert -> Service.Advert rd.a
            | Stats -> Service.Stats
          in
          let _, sq =
            timed r ~parent:exec ~req ("serve/query/" ^ k) (fun () -> Service.query svc q)
          in
          let compute name f = fst (timed r ~parent:sq ~req name f) in
          let t0 = Wire.now () in
          (match kind with
          | Inputs.Route ->
              (match compute "routing/route" (fun () -> Link_state.route ls ~src:rd.a ~dst:rd.b) with
              | Some p -> add hops (float_of_int (List.length (p :> int list) - 1))
              | None -> ());
              ignore (compute "graph/dist_pair" (fun () -> Bfs.dist_pair vg rd.a rd.b))
          | Paths ->
              ignore
                (compute "graph/disjoint_paths" (fun () ->
                     Disjoint_paths.min_sum_paths vh ~k:2 rd.a rd.b))
          | Advert -> ignore (compute "serve/advert_lookup" (fun () -> Array.to_list vadj.(rd.a)))
          | Stats ->
              ignore
                (compute "serve/stats_compute" (fun () ->
                     (Edge_set.cardinal vsp, Link_state.advertisement_size ls))));
          add (sample_of r ("compute/" ^ k)) ((Wire.now () -. t0) *. 1000.)))
    [ (Inputs.Route, 1.5); (Inputs.Paths, 1.0); (Inputs.Advert, 0.5); (Inputs.Stats, 0.2) ];
  repeat ~count:200 ~min_count:10 ~budget:(budget 0.2) (fun _ ->
      ignore (t "net/request/status" (fun () -> request "status")));
  let shipped = Filename.concat work "replay.ship" in
  let _, ship_path =
    t "net/ship" (fun () -> ok_or_fail (Repl.ship ~host:"127.0.0.1" ~port ~dir:shipped ()))
  in
  let ship_bytes = file_size ship_path in
  Unix.close fd;
  Repl.stop_leader ld;
  ignore (Service.stop svc);
  (* Deltas: the workload's plan, through a standalone repair state
     (registry on, for the repair/apply profile), a bare WAL, and the
     recovered store with the view build the service does after each. *)
  let store, _ =
    t "store/recover" (fun () -> Store.recover ~policy:Wal.Always ~verify:false ~dir ())
  in
  let wal_dir = Filename.concat work "replay.walonly" in
  Unix.mkdir wal_dir 0o755;
  let wal = Wal.create_writer ~policy:Wal.Always ~dir:wal_dir ~next_seq:1 () in
  let plan = Inputs.plan topo ~seed in
  let target = if big then 10 else if smoke then 8 else 40 in
  let dirty = sample () and rebuilt = sample () and minor = sample () and rec_bytes = sample () in
  let escalations = ref 0 and nodes = ref 0 and edges = ref 0 and steps = ref 0 in
  Obs.reset ();
  while (!steps < target || !nodes < 2 || !edges < 2) && !steps < 200 do
    let step = Inputs.next plan in
    incr steps;
    if step.node_op then incr nodes else incr edges;
    let text = String.sub step.dline 6 (String.length step.dline - 6) in
    let parsed, _ = timed r ~reps:4096 "dynamic/delta_parse" (fun () -> Delta.parse text) in
    if parsed <> step.delta then failwith ("delta did not round-trip: " ^ text);
    Obs.set_enabled true;
    let w0 = (Gc.quick_stat ()).minor_words in
    let o, _ = timed r "dynamic/apply" (fun () -> Repair.apply !rs step.delta) in
    add minor ((Gc.quick_stat ()).minor_words -. w0);
    let last = values (sample_of r "dynamic/apply") in
    let by_kind = if step.node_op then "dynamic/apply_node" else "dynamic/apply_edge" in
    add (sample_of r by_kind) last.(Array.length last - 1);
    let seq = t "store/wal_append" (fun () -> Wal.append wal step.delta) in
    Obs.set_enabled false;
    add rec_bytes (float_of_int (String.length (Wal.encode_record ~seq step.delta)));
    add dirty (float_of_int o.Repair.dirty);
    add rebuilt (float_of_int o.Repair.rebuilt);
    escalations := !escalations + o.Repair.escalations;
    ignore (t "store/append" (fun () -> Store.append store step.delta));
    ignore
      (t "serve/view_build" (fun () ->
           match Store.states store with
           | [ (_, st) ] ->
               let g', sp = Repair.publish st in
               (Edge_set.to_adjacency sp, Edge_set.to_graph sp, Link_state.make g' sp)
           | _ -> failwith "one spanner expected"))
  done;
  let applies, apply_s = Option.value (Obs.span_stats "repair/apply") ~default:(0, 0.) in
  let per_apply name =
    match Obs.span_stats ("repair/apply/" ^ name) with
    | Some (_, s) -> s *. 1000. /. float_of_int (max 1 applies)
    | None -> 0.
  in
  let gates = per_apply "gates" and dirty_set = per_apply "dirty_set" in
  let rebuild = per_apply "rebuild" in
  let fsync_p50 = reg_quantile (Obs.to_json ()) "wal/fsync_latency" 0.5 in
  Obs.reset ();
  Wal.close_writer wal;
  Store.close store;
  write_spans r spans;
  let l = { metrics = []; medians = r.samples; escalations = !escalations } in
  let n layer = count (sample_of r layer) in
  (* The q-quantile of a layer, in [unit] (its samples are in ms). *)
  let at ?(q = 0.5) name unit layer =
    let x = quantile (values (sample_of r layer)) q in
    metric name unit ~samples:(n layer) (if unit = "us" then 1000. *. x else x)
  in
  let self_us name parent child = metric name "us" ~samples:(n parent) (1000. *. self l parent child) in
  let mean_of name unit s = metric name unit ~samples:(count s) (mean (values s)) in
  let per_apply name unit v = metric name unit ~samples:applies v in
  let mix_bytes =
    List.fold_left
      (fun acc (share, kind) -> acc +. (share *. mean (values (Hashtbl.find bytes kind))))
      0. mix
  in
  let adv = "net/request/advert" and exec = "proto/exec/advert" and q = "serve/query/advert" in
  let metrics =
    [ at "net.request_p50_us" "us" adv;
      at ~q:0.99 "net.request_p99_us" "us" adv;
      self_us "net.self_p50_us" adv exec;
      metric "net.bytes_per_query" "bytes" ~samples:!req_id mix_bytes;
      at "net.ship_ms" "ms" "net/ship";
      metric "net.ship_bytes" "bytes" ~samples:1 (float_of_int ship_bytes);
      self_us "proto.self_p50_us" exec q;
      at "serve.query_p50_us" "us" q;
      at ~q:0.99 "serve.query_p99_us" "us" q;
      self_us "serve.handoff_p50_us" q "compute/advert";
      at "serve.view_build_ms" "ms" "serve/view_build";
      at "routing.route_p50_us" "us" "routing/route";
      at ~q:0.99 "routing.route_p99_us" "us" "routing/route";
      mean_of "routing.bfs_per_route" "count" hops;
      at "graph.dist_pair_p50_us" "us" "graph/dist_pair";
      at "graph.disjoint_paths_p50_ms" "ms" "graph/disjoint_paths";
      at "graph.load_ms" "ms" "graph/load";
      at "dynamic.repair_edge_p50_ms" "ms" "dynamic/apply_edge";
      at "dynamic.repair_node_p50_ms" "ms" "dynamic/apply_node";
      at ~q:0.95 "dynamic.repair_p95_ms" "ms" "dynamic/apply";
      mean_of "dynamic.dirty_mean" "count" dirty;
      mean_of "dynamic.rebuilt_mean" "count" rebuilt;
      metric "dynamic.minor_mwords_per_apply" "Mwords" ~samples:(count minor)
        (mean (values minor) /. 1e6);
      per_apply "dynamic.gates_ms" "ms" gates;
      per_apply "dynamic.dirty_set_ms" "ms" dirty_set;
      per_apply "dynamic.rebuild_ms" "ms" rebuild;
      per_apply "dynamic.apply_self_ms" "ms"
        ((apply_s *. 1000. /. float_of_int (max 1 applies)) -. gates -. dirty_set -. rebuild);
      at "dynamic.init_ms" "ms" "dynamic/init";
      at "dynamic.delta_parse_us" "us" "dynamic/delta_parse";
      at "store.wal_append_p50_ms" "ms" "store/wal_append";
      metric "store.fsync_p50_ms" "ms" ~samples:(n "store/wal_append") fsync_p50;
      mean_of "store.wal_bytes_per_delta" "bytes" rec_bytes;
      at "store.append_p50_ms" "ms" "store/append";
      at "store.recover_ms" "ms" "store/recover";
      at "store.create_ms" "ms" "store/create";
      metric "store.snapshot_bytes" "bytes" ~samples:1 (float_of_int snapshot_bytes);
      at "core.sharded_build_ms" "ms" "core/sharded_build" ]
  in
  { l with metrics }
