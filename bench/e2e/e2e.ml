(* End-to-end serving benchmark.

   Generates seeded inputs, spawns the real `rspan serve` leader (and,
   for the replica workload, `rspan replica` followers), drives them
   over at most two TCP connections from this single thread, checks
   every reply, and prints every metric by name with its unit and
   sample count. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

     e2e.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

   --trace 1 runs the workload untraced, then one more block with
   --stats on every spawned process, then replays the same seeded lines
   and deltas in-process through the layer entry points (Replay) and
   prints one attribution table per path; its JSON line carries the
   per-layer metrics. End-to-end numbers always come from the untraced
   pass.

   See README.md for the workloads, the metric catalogue, and how to
   compare two commits. *)

open Stats
module Repair = Rs_dynamic.Repair
module Json = Rs_obs.Json

(* What `rspan serve --algo exact` maintains. *)
let spec = Repair.Gdy_k { k = 1 }

type workload = Route_w | Lookup_w | Churn_w | Replica_w

let workloads =
  [ ("route_udg2000", Route_w); ("lookup_udg20000", Lookup_w); ("churn_udg2000", Churn_w);
    ("replica_udg2000", Replica_w) ]

type cfg = {
  rspan : string;
  work : string;  (* scratch directory of this run *)
  seed : int;
  seconds : float;
  smoke : bool;  (* n=200 and short steps: the dune runtest check *)
}

let size cfg w = if cfg.smoke then 200 else match w with Lookup_w -> 20000 | _ -> 2000

(* WAL records the replica workload preloads before each catch-up. *)
let preload cfg = if cfg.smoke then 6 else 24

(* Leaders that serve the untraced pass, one block each. Lookup's
   leaders take 3 s each to start (the spanner build at n=20000) and
   the replica workload preloads each of its own, so those two have
   fewer. *)
let blocks_of cfg w =
  if cfg.smoke then 2 else match w with Route_w | Churn_w -> 5 | Lookup_w | Replica_w -> 3

(* Everything one workload run produced. A run is served by several
   leader processes in turn, one block of the run each: a leader keeps
   one scheduling and heap regime for its life, so each reported number
   is the median over blocks of that block's value. *)
type pass = {
  mutable setup : float list;  (* seconds per leader start *)
  mutable lat : float array list;  (* headline latencies of each block, ms *)
  mutable rates : float list;  (* headline rate of each block, 1/s *)
  mutable rate_n : int;  (* events behind [rates] *)
  mutable rss_mb : float list;  (* peak RSS of each serving leader *)
  mutable cpu_s : float;  (* server CPU over the recorded phases *)
  mutable ops : int;  (* headline operations in those phases *)
  mutable lateness : float array list;  (* generator lateness, ms *)
  mutable path_lat : float array list;  (* latencies of the attributed path, ms *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let new_pass () =
  { setup = []; lat = []; rates = []; rate_n = 0; rss_mb = []; cpu_s = 0.; ops = 0;
    lateness = []; path_lat = []; attempted = 0; failed = 0; errors = [] }

let error p fmt =
  Printf.ksprintf
    (fun m ->
      p.failed <- p.failed + 1;
      if List.length p.errors < 8 then p.errors <- m :: p.errors)
    fmt

(* [stat] of each block that recorded something, then their median. *)
let over_blocks stat blocks =
  median (Array.of_list (List.filter_map (fun b -> if b = [||] then None else Some (stat b)) blocks))
let total blocks = List.fold_left (fun acc b -> acc + Array.length b) 0 blocks

(* {1 Servers} *)

let stats_arg = function Some f -> [ "--stats=" ^ f ] | None -> []

let spawn cfg ~tag args =
  Wire.spawn ~exe:cfg.rspan ~args ~out:(Filename.concat cfg.work (tag ^ ".out")) ~name:tag

let start_leader cfg ~graph ~tag ?stats () =
  let dir = Filename.concat cfg.work (tag ^ ".wal") in
  let args =
    [ "serve"; "--algo"; "exact"; "--readers"; "2"; "--queue"; "256"; "--wal"; dir; "--fsync";
      "always"; "--tcp"; "127.0.0.1:0" ]
    @ stats_arg stats @ [ graph ]
  in
  let t0 = Wire.now () in
  let proc = spawn cfg ~tag args in
  let port = Wire.wait_port proc in
  let c = Wire.connect ~name:tag ~port in
  ignore (Wire.status_field (Wire.call c "status") "seq");
  (proc, port, c, Wire.now () -. t0)

(* The run's leaders: [repeats] starts one after another, each timed
   from spawn to its first status reply. The last [blocks] of them each
   serve one block of the run, [serve i ~last proc port conn], and every
   one is stopped before the next starts. [stats] names the last
   leader's registry dump. *)
let leaders cfg p ~graph ~repeats ~blocks ?stats serve =
  for i = 0 to repeats - 1 do
    let last = i = repeats - 1 in
    let stats = if last then stats else None in
    let proc, port, c, dt = start_leader cfg ~graph ~tag:(Printf.sprintf "leader%d" i) ?stats () in
    p.setup <- dt :: p.setup;
    if i >= repeats - blocks then begin
      serve i ~last proc port c;
      p.rss_mb <- Wire.rss_hwm_mb proc :: p.rss_mb
    end;
    Wire.close c;
    Wire.stop proc
  done

let start_replica cfg ~leader_port ~tag ?stats () =
  let args =
    [ "replica"; "--follow"; Printf.sprintf "127.0.0.1:%d" leader_port; "--wal";
      Filename.concat cfg.work (tag ^ ".wal"); "--tcp"; "127.0.0.1:0" ]
    @ stats_arg stats
  in
  let proc = spawn cfg ~tag args in
  let port = Wire.wait_port proc in
  (proc, Wire.connect ~name:tag ~port)

(* {1 Actors driven by one select loop} *)

(* An open-loop read stream: each request is sent when due, whatever
   happened to the previous ones, and timed from when it was due. *)
type req = {
  read : Inputs.read;
  sched : float;
  mutable sent : float;
  mutable fin : float;
  mutable reply : string;
  mutable lo : int;  (* view seq known visible when sent *)
  mutable hi : int;  (* deltas offered when answered *)
}

type sender = {
  reqs : req array;
  conns : Wire.conn array;
  mutable next : int;
  mutable replied : int;
  lo : unit -> int;
  hi : unit -> int;
}

let sender ?(lo = fun () -> 0) ?(hi = fun () -> 0) conns reads times =
  { reqs =
      Array.map2
        (fun read sched -> { read; sched; sent = 0.; fin = 0.; reply = ""; lo = 0; hi = 0 })
        reads times;
    conns; next = 0; replied = 0; lo; hi }

let sender_tick s now =
  let len = Array.length s.reqs in
  while s.next < len && s.reqs.(s.next).sched <= now do
      let r = s.reqs.(s.next) in
      r.sent <- now;
      r.lo <- s.lo ();
      (* The server answers one request per connection at a time: send
         on the connection with the fewest replies outstanding, so one
         long route does not hold up the next request. *)
      let c =
        Array.fold_left
          (fun best c -> if Wire.outstanding c < Wire.outstanding best then c else best)
          s.conns.(s.next mod Array.length s.conns)
          s.conns
      in
      Wire.send c r.read.line (fun t reply ->
          r.fin <- t;
          r.reply <- reply;
          r.hi <- s.hi ();
          s.replied <- s.replied + 1);
      s.next <- s.next + 1
  done;
  if s.next >= len then infinity else s.reqs.(s.next).sched

let sender_done s = s.next >= Array.length s.reqs && s.replied = s.next
let sent s = Array.sub s.reqs 0 s.next

(* A closed-loop delta writer: offer one plan step, poll `status` on
   [poll] every 0.5 ms until its sequence number is visible, then offer
   the next (no sooner than [period] after the last). *)
type writer = {
  plan : Inputs.plan;
  offer : Wire.conn;
  poll : Wire.conn;
  period : float;
  stop_at : float;  (* no offers at or after this time (see [writer_idle]) *)
  limit : int;  (* no offers past this many plan steps *)
  record_from : float;  (* offers before this are warm-up *)
  vis : sample;  (* offer-to-visible of recorded offers, ms *)
  mutable last_vis : float;  (* when the last recorded offer became visible *)
  mutable busy : bool;
  mutable polling : bool;
  mutable next_at : float;
  mutable target : int;
  mutable t_offer : float;
  mutable visible : int;
  mutable offers : int;
}

let writer ?(period = 0.) ?(limit = max_int) ?(record_from = 0.) ~stop_at plan offer poll =
  { plan; offer; poll; period; stop_at; limit; record_from; vis = sample (); last_vis = 0.;
    busy = false; polling = false; next_at = 0.; target = Inputs.issued plan;
    t_offer = 0.; visible = Inputs.issued plan; offers = 0 }

(* Past [stop_at] the writer still offers until it has recorded one
   delta, so a short block under load is never left without a sample. *)
let writer_idle w now =
  (not w.busy) && (not w.polling)
  && (Inputs.issued w.plan >= w.limit || (now >= w.stop_at && count w.vis > 0))

let writer_tick w now =
  if w.busy then infinity
  else if w.polling then begin
    if now >= w.next_at then begin
      w.busy <- true;
      let t_poll = now in
      Wire.send w.poll "status" (fun t reply ->
          w.busy <- false;
          if Wire.status_field reply "seq" >= w.target then begin
            w.visible <- w.target;
            w.polling <- false;
            if w.t_offer >= w.record_from then begin
              add w.vis ((t -. w.t_offer) *. 1000.);
              w.last_vis <- t
            end;
            w.next_at <- Float.max t (w.t_offer +. w.period)
          end
          else w.next_at <- t_poll +. 0.0005)
    end;
    w.next_at
  end
  else if writer_idle w now then infinity
  else if now < w.next_at then w.next_at
  else begin
    let step = Inputs.next w.plan in
    w.target <- Inputs.issued w.plan;
    w.t_offer <- now;
    w.offers <- w.offers + 1;
    w.busy <- true;
    Wire.send w.offer step.dline (fun t reply ->
        w.busy <- false;
        if reply <> "delta accepted" then
          raise (Wire.Conn_error (Printf.sprintf "%S -> %S" step.dline reply));
        w.polling <- true;
        w.next_at <- t);
    now
  end

let drive conns ~ticks ~fin =
  Wire.run conns ~deadline:(Wire.now () +. 120.)
    ~tick:(fun now -> List.fold_left (fun acc f -> Float.min acc (f now)) infinity ticks)
    ~fin

(* {1 Measurement helpers} *)

let lat_ms (r : req) = (r.fin -. r.sched) *. 1000.
let late_ms (r : req) = (r.sent -. r.sched) *. 1000.

(* Gate the replies of one step; count every request as attempted. *)
let gate_step p topo ~mask_at (reqs : req array) =
  p.attempted <- p.attempted + Array.length reqs;
  let answered =
    Array.to_list reqs
    |> List.filter_map (fun (r : req) ->
           if r.fin > 0. then Some { Gate.read = r.read; reply = r.reply; lo = r.lo; hi = r.hi }
           else begin
             error p "%S: no reply" r.read.line;
             None
           end)
  in
  let bad, why = Gate.check_all topo ~mask_at answered in
  if bad > 0 then begin
    p.failed <- p.failed + bad;
    p.errors <- List.rev_append why p.errors
  end

let cpu_s procs = List.fold_left (fun acc pr -> acc +. Wire.cpu_s pr) 0. procs

(* One open-loop step at [rate] for [dur] seconds. Returns its requests
   and the server CPU seconds they cost. *)
let open_step ~conns ~servers ~st ~mix topo ~rate ~dur =
  let t0 = Wire.now () +. 0.01 in
  let times = Inputs.arrivals st ~rate ~start:t0 ~dur in
  let reads = Array.map (fun _ -> Inputs.draw_read st topo mix) times in
  let s = sender conns reads times in
  let cpu0 = cpu_s servers in
  drive (Array.to_list conns) ~ticks:[ sender_tick s ] ~fin:(fun () -> sender_done s);
  (sent s, cpu_s servers -. cpu0)

(* Closed loop: keep two requests outstanding on every connection for
   [dur] seconds. Returns the number of replies that arrived within
   [dur], their rate per second (timed to the last of them, so it is
   not a whole number of replies over a fixed time), and every request
   sent. *)
let saturate ~conns ~st ~mix topo ~dur =
  let all = ref [] in
  let t_start = Wire.now () in
  let t_end = t_start +. dur in
  let replies = ref 0 and t_last = ref t_start in
  let rec issue c =
    let rd = Inputs.draw_read st topo mix in
    let t = Wire.now () in
    let r = { read = rd; sched = t; sent = t; fin = 0.; reply = ""; lo = 0; hi = 0 } in
    all := r :: !all;
    Wire.send c rd.line (fun t reply ->
        r.fin <- t;
        r.reply <- reply;
        if t <= t_end then begin
          incr replies;
          t_last := t;
          issue c
        end)
  in
  Array.iter (fun c -> issue c; issue c) conns;
  drive (Array.to_list conns) ~ticks:[]
    ~fin:(fun () -> Array.for_all (fun c -> Wire.outstanding c = 0) conns);
  (!replies, float_of_int !replies /. (!t_last -. t_start), Array.of_list !all)

(* {1 Read workloads: route and lookup} *)

type read_params = {
  mix : (float * Inputs.kind) list;
  ref_rate : float;
  path_kind : Inputs.kind;  (* the request kind the attribution table follows *)
}

(* Route's reference rate keeps the server's two cores about a seventh
   busy: at 100 qps they were 40% busy, and queueing then turned the
   host's own speed swings into p50 swings several times larger. *)
let route_params = { mix = Inputs.route_mix; ref_rate = 50.; path_kind = Route }
let lookup_params = { mix = Inputs.lookup_mix; ref_rate = 500.; path_kind = Advert }

(* One leader's block: an unrecorded warm-up of closed-loop saturation
   (a fresh leader answers slowly until its heap has grown), the
   open-loop reference rate, then closed-loop saturation for the last
   30% of the block (full pass only). *)
let read_block cfg p ~topo ~prm ~block_s ~full i proc port c1 =
  let warm = Float.min 0.5 (0.25 *. block_s) in
  let sat_s = if full then 0.3 *. block_s else 0. in
  let conns = [| c1; Wire.connect ~name:"leader-2" ~port |] in
  let mask_at _ = Inputs.Intact in
  (* How many requests a closed loop sends depends on the server's
     speed, so it draws from its own stream: the open-loop step's
     requests depend on the seed and block alone. *)
  let closed = Inputs.stream ~seed:cfg.seed ~salt:(200 + i) in
  let _, _, unrecorded = saturate ~conns ~st:closed ~mix:prm.mix topo ~dur:warm in
  gate_step p topo ~mask_at unrecorded;
  let r, cpu =
    open_step ~conns ~servers:[ proc ] ~st:(Inputs.stream ~seed:cfg.seed ~salt:(100 + i))
      ~mix:prm.mix topo ~rate:prm.ref_rate ~dur:(block_s -. warm -. sat_s)
  in
  gate_step p topo ~mask_at r;
  let lat = Array.map lat_ms r in
  p.lat <- lat :: p.lat;
  p.lateness <- Array.map late_ms r :: p.lateness;
  p.path_lat <-
    Array.of_list
      (List.filter_map
         (fun (r : req) -> if r.read.kind = prm.path_kind then Some (lat_ms r) else None)
         (Array.to_list r))
    :: p.path_lat;
  p.cpu_s <- p.cpu_s +. cpu;
  p.ops <- p.ops + Array.length r;
  Printf.printf "  leader %d: %.0f qps, %d requests: p50 %.2f ms, p75 %.2f ms, p99 %.2f ms, lateness p99 %.2f ms"
    i prm.ref_rate (Array.length r) (median lat) (quantile lat 0.75) (quantile lat 0.99)
    (quantile (Array.map late_ms r) 0.99);
  if full then begin
    let n, rate, sat = saturate ~conns ~st:closed ~mix:prm.mix topo ~dur:sat_s in
    gate_step p topo ~mask_at sat;
    p.rates <- rate :: p.rates;
    p.rate_n <- p.rate_n + n;
    Printf.printf "; saturation %.0f replies/s" rate
  end;
  print_newline ();
  Wire.close conns.(1)

let read_workload cfg p ~topo ~graph ~prm ~repeats ~blocks ~block_s ~full ?stats () =
  leaders cfg p ~graph ~repeats ~blocks ?stats:(Option.map (fun f -> f "leader") stats)
    (fun i ~last:_ proc port c -> read_block cfg p ~topo ~prm ~block_s ~full i proc port c)

(* {1 Churn} *)

let all_adverts conns n =
  let res = Array.make n "" in
  let left = ref n in
  for u = 0 to n - 1 do
    Wire.send conns.(u mod Array.length conns) (Printf.sprintf "advert %d" u) (fun _ r ->
        res.(u) <- r;
        decr left)
  done;
  drive (Array.to_list conns) ~ticks:[] ~fin:(fun () -> !left = 0);
  res

(* Every node's advert must equal the spanner a from-scratch build
   derives on [g]. *)
let check_adverts p ~what replies expected =
  Array.iteri
    (fun u reply ->
      p.attempted <- p.attempted + 1;
      match Gate.advert_list ~node:u reply with
      | l -> if l <> expected u then error p "%s: advert %d differs" what u
      | exception Failure m -> error p "%s: %s" what m)
    replies

let expected_adverts g =
  let adj = Rs_graph.Edge_set.to_adjacency (Repair.build spec g) in
  fun u -> List.sort Int.compare (Array.to_list adj.(u))

(* One leader's churn block: a closed-loop writer on [cw] and a 100 qps
   open-loop probe (half route, half advert) on a second connection for
   [block_s] seconds, the first of them unrecorded. Each block follows
   its own plan from the leader's fresh start. *)
let churn_block cfg p ~topo ~block_s ~check i proc port cw =
  let plan = Inputs.plan topo ~seed:(cfg.seed + (7919 * i)) in
  let cr = Wire.connect ~name:"probe" ~port in
  let t0 = Wire.now () in
  let warm = Float.min 1. (0.25 *. block_s) in
  let stop_at = t0 +. block_s in
  let w = writer ~record_from:(t0 +. warm) ~stop_at plan cw cw in
  let st = Inputs.stream ~seed:cfg.seed ~salt:(13 + i) in
  let times = Inputs.arrivals st ~rate:100. ~start:t0 ~dur:block_s in
  let s =
    sender [| cr |]
      (Array.map (fun _ -> Inputs.draw_read st topo Inputs.probe_mix) times)
      times ~lo:(fun () -> w.visible) ~hi:(fun () -> Inputs.issued plan)
  in
  let cpu0 = cpu_s [ proc ] in
  drive [ cw; cr ] ~ticks:[ writer_tick w; sender_tick s ]
    ~fin:(fun () -> sender_done s && writer_idle w (Wire.now ()));
  p.cpu_s <- p.cpu_s +. (cpu_s [ proc ] -. cpu0);
  p.ops <- p.ops + w.offers;
  p.attempted <- p.attempted + w.offers;
  let probes =
    Array.of_list (List.filter (fun (r : req) -> r.sched >= t0 +. warm) (Array.to_list (sent s)))
  in
  gate_step p topo ~mask_at:(Inputs.mask_at plan) probes;
  let vis = values w.vis in
  p.lat <- vis :: p.lat;
  p.path_lat <- vis :: p.path_lat;
  p.rates <- (float_of_int (count w.vis) /. (w.last_vis -. (t0 +. warm))) :: p.rates;
  p.rate_n <- p.rate_n + count w.vis;
  p.lateness <- Array.map late_ms probes :: p.lateness;
  let probe_lat = Array.map lat_ms probes in
  let stale (r : req) = Gate.strip_stale r.reply <> r.reply in
  Printf.printf
    "  leader %d: %d deltas visible in p50 %.1f ms, p75 %.1f ms; probe p50 %.2f ms, p99 %.2f ms \
     (%d reads, %d stale)\n%!"
    i (count w.vis) (median vis) (quantile vis 0.75) (median probe_lat) (quantile probe_lat 0.99)
    (Array.length probes)
    (Array.fold_left (fun k r -> if stale r then k + 1 else k) 0 probes);
  (* Drain; on the run's last leader (full pass) every node's advert
     must then match a rebuild of the final graph. *)
  let seq = Inputs.issued plan in
  (match Wire.call cw "drain" with
  | r when r = Printf.sprintf "drained at seq %d" seq -> ()
  | r -> error p "drain: %S, expected seq %d" r seq);
  if check then
    check_adverts p ~what:"after churn" (all_adverts [| cw; cr |] topo.n)
      (expected_adverts (Inputs.graph_at plan seq));
  Wire.close cr

let churn_workload cfg p ~topo ~graph ~repeats ~blocks ~block_s ~full ?stats () =
  leaders cfg p ~graph ~repeats ~blocks ?stats:(Option.map (fun f -> f "leader") stats)
    (fun i ~last proc port c -> churn_block cfg p ~topo ~block_s ~check:(full && last) i proc port c)

(* {1 Replica} *)

(* One leader's replica block: preload the fresh leader with [preload]
   plan deltas, time a cold replica from spawn until it shows every one
   of them (status polled every 5 ms), then run a live tail through the
   leader for the rest of the block (at least a third of it): one delta
   every 200 ms, each timed until the replica shows it, with a 20 qps
   advert probe on the replica. *)
let replica_block cfg p ~topo ~preload ~block_s ~check ?stats i proc port cl =
  let plan = Inputs.plan topo ~seed:(cfg.seed + (7919 * i)) in
  let pre = writer ~limit:preload ~stop_at:infinity plan cl cl in
  drive [ cl ] ~ticks:[ writer_tick pre ] ~fin:(fun () -> writer_idle pre (Wire.now ()));
  p.attempted <- p.attempted + pre.offers;
  let t_start = Wire.now () in
  let rp, cr = start_replica cfg ~leader_port:port ~tag:(Printf.sprintf "replica%d" i) ?stats () in
  let rec wait () =
    let s = Wire.call cr "status" in
    if Wire.status_field s "lag" = 0 && Wire.status_field s "seq" >= preload then Wire.now () -. t_start
    else if Wire.now () -. t_start > 120. then raise (Wire.Conn_error "replica catch-up timed out")
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  let catchup = wait () in
  p.attempted <- p.attempted + 1;
  p.path_lat <- [| catchup *. 1000. |] :: p.path_lat;
  p.rates <- (float_of_int preload /. catchup) :: p.rates;
  p.rate_n <- p.rate_n + 1;
  let t0 = Wire.now () in
  let stop_at = Float.max (t_start +. block_s) (t0 +. (block_s /. 3.)) in
  let w = writer ~period:0.2 ~stop_at plan cl cr in
  let st = Inputs.stream ~seed:cfg.seed ~salt:(17 + i) in
  let times =
    match Inputs.arrivals st ~rate:20. ~start:t0 ~dur:(stop_at -. t0) with
    | [||] -> [| t0 |]  (* a short (smoke) tail still reads the replica once *)
    | a -> a
  in
  let s =
    sender [| cr |]
      (Array.map (fun _ -> Inputs.draw_read st topo [ (1.0, Inputs.Advert) ]) times)
      times ~lo:(fun () -> w.visible) ~hi:(fun () -> Inputs.issued plan)
  in
  let cpu0 = cpu_s [ proc; rp ] in
  drive [ cl; cr ] ~ticks:[ writer_tick w; sender_tick s ]
    ~fin:(fun () -> sender_done s && writer_idle w (Wire.now ()));
  p.cpu_s <- p.cpu_s +. (cpu_s [ proc; rp ] -. cpu0);
  p.ops <- p.ops + w.offers;
  p.attempted <- p.attempted + w.offers;
  gate_step p topo ~mask_at:(Inputs.mask_at plan) (sent s);
  let vis = values w.vis in
  p.lat <- vis :: p.lat;
  p.lateness <- Array.map late_ms (sent s) :: p.lateness;
  Printf.printf "  leader %d: catch-up of %d records in %.2f s; %d tail deltas visible in p50 %.1f ms, p75 %.1f ms\n%!"
    i preload catchup (count w.vis) (median vis) (quantile vis 0.75);
  (* The replica must end with the leader's spanner: node by node, on
     the run's last leader (full pass). *)
  let seq = Inputs.issued plan in
  ignore (Wire.call cl "drain");
  let rec settle k =
    let s = Wire.call cr "status" in
    if Wire.status_field s "seq" >= seq && Wire.status_field s "lag" = 0 then ()
    else if k = 0 then error p "replica stuck below seq %d: %s" seq s
    else begin
      Unix.sleepf 0.005;
      settle (k - 1)
    end
  in
  settle 6000;
  if check then begin
    let leader_ads = all_adverts [| cl |] topo.n and replica_ads = all_adverts [| cr |] topo.n in
    check_adverts p ~what:"replica vs leader" replica_ads (fun u ->
        try Gate.advert_list ~node:u leader_ads.(u) with Failure _ -> [])
  end;
  Wire.close cr;
  Wire.stop ~signal:true rp

let replica_workload cfg p ~topo ~graph ~repeats ~blocks ~block_s ~full ?stats () =
  leaders cfg p ~graph ~repeats ~blocks ?stats:(Option.map (fun f -> f "leader") stats)
    (fun i ~last proc port c ->
      let stats = if last then Option.map (fun f -> f "replica") stats else None in
      replica_block cfg p ~topo ~preload:(preload cfg) ~block_s ~check:(full && last) ?stats i proc
        port c)

(* {1 Running a workload} *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type inputs = { topo : Inputs.topo; graph : string }

let make_inputs cfg w =
  let n = size cfg w in
  let topo = Inputs.udg ~seed:((cfg.seed * 1000) + n) ~n in
  let graph = Filename.concat cfg.work "graph.rsg" in
  Rs_graph.Graph_io.write_binary graph topo.g;
  { topo; graph }

(* One pass of [w]. The full pass runs every block (and the saturation
   steps and final advert checks); the traced pass runs one block of the
   same length, with [stats] naming a registry dump per role. *)
let run_pass cfg w inp ~full ?stats () =
  let p = new_pass () in
  let block_s = cfg.seconds /. float_of_int (blocks_of cfg w) in
  let blocks = if full then blocks_of cfg w else 1 in
  (* Leader starts are cheap below the lookup size: time nine. *)
  let repeats = if full && w <> Lookup_w && not cfg.smoke then 9 else blocks in
  let topo = inp.topo and graph = inp.graph in
  (try
     match w with
     | Route_w ->
         read_workload cfg p ~topo ~graph ~prm:route_params ~repeats ~blocks ~block_s ~full ?stats ()
     | Lookup_w ->
         read_workload cfg p ~topo ~graph ~prm:lookup_params ~repeats ~blocks ~block_s ~full ?stats ()
     | Churn_w -> churn_workload cfg p ~topo ~graph ~repeats ~blocks ~block_s ~full ?stats ()
     | Replica_w -> replica_workload cfg p ~topo ~graph ~repeats ~blocks ~block_s ~full ?stats ()
   with Wire.Conn_error m | Failure m | Sys_error m ->
     error p "%s" m;
     Wire.kill_all ());
  p

let headline p = over_blocks median p.lat

let e2e_metrics p =
  let n = total p.lat in
  [ metric "setup_s" "s" ~samples:(List.length p.setup) (median (Array.of_list p.setup));
    metric "p50_ms" "ms" ~samples:n (headline p);
    metric "p75_ms" "ms" ~samples:n (over_blocks (fun a -> quantile a 0.75) p.lat);
    metric "rate_per_s" "1/s" ~samples:p.rate_n (median (Array.of_list p.rates));
    metric "server_rss_mb" "MB" ~samples:(List.length p.rss_mb) (median (Array.of_list p.rss_mb)) ]

(* {2 Traced run} *)

let registry file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> ( match Json.parse s with Ok j -> Some j | Error _ -> None)
  | exception Sys_error _ -> None

let reg_get j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path |> num

let print_registry role j =
  Printf.printf "  registry of the %s (--stats):\n" role;
  let hist name =
    let c = reg_get j [ "histograms"; name; "count" ] in
    if c > 0. then
      Printf.printf "    %-28s count %6.0f  p50 %9.3f  p99 %9.3f\n" name c (reg_quantile j name 0.5)
        (reg_quantile j name 0.99)
  in
  List.iter hist
    [ "service/query_latency_ms"; "service/repair_ms"; "service/batch_size"; "wal/fsync_latency";
      "repair/latency" ];
  let span name =
    let c = reg_get j [ "spans"; name; "count" ] in
    if c > 0. then
      Printf.printf "    %-28s count %6.0f  mean %9.3f ms\n" name c
        (reg_get j [ "spans"; name; "total_s" ] *. 1000. /. c)
  in
  List.iter span
    [ "repair/init"; "repair/apply"; "repair/apply/dirty_set"; "repair/apply/rebuild";
      "repair/apply/gates"; "store/recover"; "store/recover/load_snapshot"; "store/recover/replay";
      "store/snapshot_write" ];
  List.iter
    (fun c ->
      let v = reg_get j [ "counters"; c ] in
      if v > 0. then Printf.printf "    %-28s %.0f\n" c v)
    [ "net/frames_in"; "net/bytes_in"; "net/bytes_out"; "net/records_streamed"; "net/ship_bytes";
      "service/queries"; "service/stale_reads"; "service/batches"; "replica/records_applied" ]

(* A path's table: each layer's median, its share of the end-to-end
   median, and the remainder no layer covers. Returns that remainder
   as a fraction. *)
let table name ~e2e_ms ~samples rows =
  Printf.printf "  path %s: end-to-end median %.3f ms (%d samples)\n" name e2e_ms samples;
  Printf.printf "    %-44s %10s %8s\n" "layer" "ms" "share";
  let covered =
    List.fold_left
      (fun acc (label, ms) ->
        Printf.printf "    %-44s %10.3f %7.1f%%\n" label ms (100. *. ms /. e2e_ms);
        acc +. ms)
      0. rows
  in
  let rest = e2e_ms -. covered in
  Printf.printf "    %-44s %10.3f %7.1f%%\n%!" "unattributed" rest (100. *. rest /. e2e_ms);
  rest /. e2e_ms

let attribution cfg w (pa : pass) (l : Replay.layers) =
  let m = Replay.get l in
  let path name rows =
    table name ~e2e_ms:(over_blocks median pa.path_lat) ~samples:(total pa.path_lat) rows
  in
  let query kind =
    let k = Inputs.kind_name kind in
    let self a b = Replay.self l (a ^ k) (b ^ k) in
    path ("query_" ^ k)
      [ (Printf.sprintf "compute (%s on the view)" k, m ("compute/" ^ k));
        ("serve (Service.query handoff)", self "serve/query/" "compute/");
        ("proto (Proto.exec self)", self "proto/exec/" "serve/query/");
        ("net (Repl.request self, in-process)", self "net/request/" "proto/exec/") ]
  in
  let headline =
    match w with
    | Route_w -> query Route
    | Lookup_w -> query Advert
    | Churn_w ->
        path "delta_churn"
          [ ("dynamic (Repair.apply)", m "dynamic/apply");
            ("store (Store.append self: WAL, graph)", Replay.self l "store/append" "dynamic/apply");
            ("serve (view build)", m "serve/view_build");
            ("net+proto (offer and final poll, 2 round trips)", 2. *. m "net/request/status") ]
    | Replica_w ->
        let records = float_of_int (preload cfg) in
        path "catchup_replica"
          [ ("net (Repl.ship of the snapshot)", m "net/ship");
            ("store (recover the shipped snapshot)", m "store/recover");
            ( Printf.sprintf "replay (%.0f x Store.append + view build)" records,
              records *. (m "store/append" +. m "serve/view_build") ) ]
  in
  let setup =
    table "setup" ~e2e_ms:(1000. *. median (Array.of_list pa.setup)) ~samples:(List.length pa.setup)
      [ ("graph (Graph_io.load)", m "graph/load");
        ("store (Store.create: Repair.init and snapshot)", m "store/create");
        ("serve (view build)", m "serve/view_build") ]
  in
  (headline, setup)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (* traced runs only *)
  errors : string list;
}

(* What the summary line reports: the per-layer metrics of a traced
   run, the end-to-end metrics otherwise. *)
let reported o = if o.layers <> [] then o.layers else o.e2e

let run_workload cfg (name, w) ~trace =
  mkdir_p cfg.work;
  let inp = make_inputs cfg w in
  Printf.printf "workload %s, seed %d: n=%d m=%d, %g s%s\n%!" name cfg.seed inp.topo.n inp.topo.m
    cfg.seconds (if trace then ", traced" else "");
  let sub d = { cfg with work = Filename.concat cfg.work d } in
  mkdir_p (Filename.concat cfg.work "a");
  let pa = run_pass (sub "a") w inp ~full:true () in
  Printf.printf "  leader starts: %s s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") pa.setup));
  let e2e = e2e_metrics pa in
  let layers, pb =
    if not trace then ([], None)
    else begin
      mkdir_p (Filename.concat cfg.work "b");
      let stats role = Filename.concat cfg.work (role ^ ".stats.json") in
      let pb = run_pass (sub "b") w inp ~full:false ~stats () in
      List.iter
        (fun role ->
          match registry (stats role) with Some j -> print_registry role j | None -> ())
        [ "leader"; "replica" ];
      let spans =
        Filename.concat (Filename.dirname cfg.work) (Printf.sprintf "trace-%s-s%d.jsonl" name cfg.seed)
      in
      let mix =
        match w with Route_w -> Inputs.route_mix | Lookup_w -> Inputs.lookup_mix | _ -> Inputs.probe_mix
      in
      let layers =
        Replay.run ~smoke:cfg.smoke ~seed:cfg.seed ~mix ~topo:inp.topo ~graph:inp.graph ~work:cfg.work
          ~spans
      in
      Printf.printf "  spans written to %s\n" spans;
      if layers.escalations > 0 then
        error pb "replay: Repair.apply escalated %d times over the plan (must be 0)"
          layers.escalations;
      let unattributed, setup_unattributed = attribution cfg w pa layers in
      let reads_role = if w = Replica_w then "replica" else "leader" in
      let reg = Option.value (registry (stats reads_role)) ~default:(Json.Obj []) in
      let q = "service/query_latency_ms" in
      let reads =
        match reg_get reg [ "histograms"; q; "count" ] with
        | c when Float.is_finite c -> int_of_float c
        | _ -> 0
      in
      let overhead = 100. *. (headline pb -. headline pa) /. headline pa in
      let layer_metrics =
        layers.Replay.metrics
        @ [ metric "serve.latency_p50_ms" "ms" ~samples:reads (reg_quantile reg q 0.5);
            metric "serve.latency_p99_ms" "ms" ~samples:reads (reg_quantile reg q 0.99);
            metric "serve.stale_reads" "count" ~samples:1 (reg_get reg [ "counters"; "service/stale_reads" ]);
            metric "proc.server_cpu_ms_per_op" "ms" ~samples:pa.ops
              (pa.cpu_s *. 1000. /. float_of_int (max 1 pa.ops));
            metric "gen.lateness_p99_ms" "ms" ~samples:(total pa.lateness)
              (quantile (Array.concat pa.lateness) 0.99);
            metric "obs.overhead_pct" "%" ~samples:(total pb.lat) overhead;
            metric "attrib.unattributed_frac" "ratio" ~samples:(total pa.path_lat) unattributed;
            metric "attrib.setup_unattributed_frac" "ratio" ~samples:(List.length pa.setup)
              setup_unattributed ]
      in
      (layer_metrics, Some pb)
    end
  in
  let passes = pa :: Option.to_list pb in
  let attempted = List.fold_left (fun a (p : pass) -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a (p : pass) -> a + p.failed) 0 passes in
  let errors = List.concat_map (fun (p : pass) -> List.rev p.errors) passes in
  List.iter
    (fun m -> Printf.printf "  %-34s %14.4f %-6s (%d samples)\n" m.name m.value m.unit_ m.samples)
    (e2e @ layers);
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) errors;
  let finite = List.for_all (fun m -> Float.is_finite m.value) (e2e @ layers) in
  if not finite then Printf.printf "  FAILED: a metric could not be computed\n";
  { correct = failed = 0 && finite && attempted > 0; attempted = max 1 attempted; failed; e2e; layers;
    errors }

let metrics_json ?(samples = false) ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
             @ if samples then [ ("samples", Json.Int m.samples) ] else []) ))
       ms)

let summary_json o =
  Json.Obj
    [ ("correct", Json.Bool o.correct); ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed); ("metrics", metrics_json (reported o)) ]

(* The result file `compare` reads: the summary plus its provenance. *)
let result_json ~name cfg ~trace o =
  Json.Obj
    [ ("workload", Json.String name); ("seed", Json.Int cfg.seed);
      ("seconds", Json.Float cfg.seconds); ("trace", Json.Bool trace);
      ("correct", Json.Bool o.correct); ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed); ("metrics", metrics_json ~samples:true (reported o));
      ("errors", Json.List (List.map (fun f -> Json.String f) o.errors)) ]

(* {1 Smoke check} *)

(* Every metric the benchmark declares must come out, with its unit. *)
let smoke_check ~spec_file outcomes =
  let spec =
    match Json.parse (In_channel.with_open_bin spec_file In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("cannot parse " ^ spec_file ^ ": " ^ e)
  in
  let declared key =
    match Json.member key spec with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.String n), Some (Json.String u) -> (n, u)
            | _ -> failwith "malformed metric entry")
          l
    | _ -> failwith ("no " ^ key ^ " list in " ^ spec_file)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (name, o) ->
      if not o.correct then problem "%s: run not correct" name;
      List.iter
        (fun (set, ms) ->
          List.iter
            (fun (n, u) ->
              match List.find_opt (fun m -> m.name = n) ms with
              | None -> problem "%s: %s metric %s missing" name set n
              | Some m when m.unit_ <> u -> problem "%s: %s has unit %s, declared %s" name n m.unit_ u
              | Some m when not (Float.is_finite m.value) -> problem "%s: %s is not finite" name n
              | Some _ -> ())
            (declared set))
        [ ("end_to_end", o.e2e); ("per_layer", o.layers) ])
    outcomes;
  List.iter prerr_endline (List.rev !problems);
  !problems = []

(* {1 Command line} *)

let () =
  (* A stopped benchmark still stops the servers it started (at_exit). *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  let workload = ref "all" and seed = ref 1 and seconds = ref 18. and trace = ref 0 in
  let rspan = ref "" and work = ref ".bench_build/e2e" and out = ref "" in
  let smoke = ref false and spec_file = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  one of the workloads, or all (default)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload (default 18)");
      ("--trace", Arg.Set_int trace, "0|1  also run the traced pass and the layer replay");
      ("--rspan", Arg.Set_string rspan, "PATH  the rspan binary (default: next to this build)");
      ("--work", Arg.Set_string work, "DIR  scratch and output files (default .bench_build/e2e)");
      ("--out", Arg.Set_string out, "FILE  result JSON (default DIR/result-WORKLOAD-sSEED-tTRACE.json)");
      ("--smoke", Arg.Set smoke, " n=200, 1 s runs, all workloads traced; check against --spec");
      ("--spec", Arg.Set_string spec_file, "FILE  BENCHMARK.json, for --smoke") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [options]";
  let rspan =
    if !rspan <> "" then !rspan
    else
      List.fold_left Filename.concat (Filename.dirname Sys.executable_name)
        [ ".."; ".."; "bin"; "rspan.exe" ]
  in
  if not (Sys.file_exists rspan) then begin
    Printf.eprintf "e2e: no rspan binary at %s (dune build bin/rspan.exe, or pass --rspan)\n" rspan;
    exit 2
  end;
  let selected =
    if !smoke || !workload = "all" then workloads
    else
      match List.assoc_opt !workload workloads with
      | Some w -> [ (!workload, w) ]
      | None ->
          Printf.eprintf "e2e: unknown workload %s (one of: %s, all)\n" !workload
            (String.concat ", " (List.map fst workloads));
          exit 2
  in
  let trace = !smoke || !trace = 1 in
  (* The smoke run keeps its report in a log and speaks only on failure. *)
  let log = Filename.concat !work "smoke.log" in
  if !smoke then begin
    mkdir_p !work;
    Unix.dup2 (Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644) Unix.stdout
  end;
  let outcomes =
    List.map
      (fun (name, w) ->
        let cfg =
          { rspan; seed = !seed; seconds = (if !smoke then 1. else !seconds); smoke = !smoke;
            work = Filename.concat !work (Printf.sprintf "run-%s-%d" name (Unix.getpid ())) }
        in
        (try rm_rf cfg.work with Unix.Unix_error _ | Sys_error _ -> ());
        let o = run_workload cfg (name, w) ~trace in
        Wire.kill_all ();
        (try rm_rf cfg.work with Unix.Unix_error _ | Sys_error _ -> ());
        let file =
          if !out <> "" && List.length selected = 1 then !out
          else
            Filename.concat !work
              (Printf.sprintf "result-%s-s%d-t%d.json" name cfg.seed (Bool.to_int trace))
        in
        mkdir_p (Filename.dirname file);
        Out_channel.with_open_bin file (fun oc ->
            output_string oc (Json.to_string ~pretty:true (result_json ~name cfg ~trace o));
            output_char oc '\n');
        (name, o))
      selected
  in
  if !smoke then begin
    let ok = smoke_check ~spec_file:!spec_file outcomes in
    if not ok then Printf.eprintf "smoke: failed; the full report is in %s\n" log;
    exit (if ok then 0 else 1)
  end;
  List.iter (fun (_, o) -> print_endline (Json.to_string (summary_json o))) outcomes;
  exit (if List.for_all (fun (_, o) -> o.correct) outcomes then 0 else 1)
