module Graph = Rs_graph.Graph
module Edge_set = Rs_graph.Edge_set
module Bfs = Rs_graph.Bfs
module Rand = Rs_graph.Rand
module Fault = Rs_distributed.Fault
module Delta = Rs_dynamic.Delta
module Repair = Rs_dynamic.Repair

type strategy = {
  name : string;
  build : Graph.t -> Edge_set.t;
  spec : Repair.spec option;
}

let strategy ?spec name build = { name; build; spec }

type report = {
  name : string;
  steps : int;
  pairs_attempted : int;
  delivered : int;
  mean_stretch : float;
  mean_advertised : float;
  link_changes : int;
  repair_mismatches : int;
}

(* mutable per-strategy accumulator *)
type state = {
  strategy : strategy;
  mutable stale_adj : int array array;  (** adjacency of the stale H *)
  mutable advertised_sum : int;
  mutable refreshes : int;
  mutable attempted : int;
  mutable delivered : int;
  mutable stretch_sum : float;
  mutable repair : Repair.t option;  (** incremental mode only *)
  mutable repair_mismatches : int;
}

(* belief distances from [dst] in (stale H + c's current links), one
   search per hop. Link_state.route serves every hop from one BFS over
   H, but that identity needs H inside G; a stale H may still hold
   links at c that are gone from G, so here each hop searches its own
   view. *)
let belief_dist ~n ~stale_adj ~current c dst =
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(dst) <- 0;
  queue.(0) <- dst;
  let head = ref 0 and tail = ref 1 in
  let push v d =
    if dist.(v) < 0 then begin
      dist.(v) <- d;
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    let dx = dist.(x) in
    Array.iter (fun y -> push y (dx + 1)) stale_adj.(x);
    if x = c then Array.iter (fun y -> push y (dx + 1)) (Graph.neighbors current c)
    else if Graph.mem_edge current c x then push c (dx + 1)
  done;
  dist

(* [fault]/[t]: per-hop fault injection — a crashed node cannot relay
   (its neighbors route around it, hello-level detection), a flapped
   link carries nothing, and each hop transmission can be lost with the
   plan's drop probability. [None] touches no random stream at all, so
   fault-free runs are byte-identical to the pre-fault evaluator. *)
let route ?fault ~t ~n ~stale_adj ~current src dst =
  let usable c w =
    match fault with
    | None -> true
    | Some fs -> Fault.node_up fs ~round:t w && Fault.link_up fs ~round:t c w
  in
  let hop_survives () =
    match fault with
    | None -> true
    | Some fs -> ( match Fault.transmit fs ~round:t with
                 | Fault.Dropped -> false
                 | Fault.Deliver _ -> true)
  in
  let endpoints_up =
    match fault with
    | None -> true
    | Some fs -> Fault.node_up fs ~round:t src && Fault.node_up fs ~round:t dst
  in
  let rec forward c hops =
    if c = dst then Some hops
    else if hops > n then None (* stale loop *)
    else begin
      let dist = belief_dist ~n ~stale_adj ~current c dst in
      let best = ref (-1) and best_d = ref max_int in
      Array.iter
        (fun w ->
          if usable c w && dist.(w) >= 0 && dist.(w) < !best_d then begin
            best := w;
            best_d := dist.(w)
          end)
        (Graph.neighbors current c);
      match !best with
      | -1 -> None
      | w -> if hop_survives () then forward w (hops + 1) else None
    end
  in
  if endpoints_up then forward src 0 else None

let edge_pair_set g =
  let tbl = Hashtbl.create (2 * Graph.m g) in
  Graph.iter_edges (fun u v -> Hashtbl.replace tbl (u, v) ()) g;
  tbl

let count_flips prev cur =
  let a = edge_pair_set prev and b = edge_pair_set cur in
  let flips = ref 0 in
  Hashtbl.iter (fun e () -> if not (Hashtbl.mem b e) then incr flips) a;
  Hashtbl.iter (fun e () -> if not (Hashtbl.mem a e) then incr flips) b;
  !flips

let adjacency_of_pairs ~n pairs =
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    pairs;
  let adj = Array.init n (fun u -> Array.make deg.(u) 0) in
  let fill = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    pairs;
  adj

(* Refresh one strategy's advertisement from the current topology.
   Full mode rebuilds H from scratch. Incremental mode (strategy has a
   repair spec) diffs the topology against the maintained repair state,
   heals it, and gates the result against the from-scratch build: any
   divergence is counted in [repair_mismatches] and the from-scratch H
   wins, so routing results can degrade only in the report, never
   silently. *)
let refresh_state ~n ~incremental g st =
  let full () = Edge_set.to_list (st.strategy.build g) in
  let pairs =
    match (incremental, st.strategy.spec) with
    | false, _ | true, None -> full ()
    | true, Some spec ->
        let r =
          match st.repair with
          | Some r ->
              if Repair.graph r != g then
                ignore (Repair.apply r (Delta.diff (Repair.graph r) g));
              r
          | None ->
              let r = Repair.init spec g in
              st.repair <- Some r;
              r
        in
        let healed = Repair.pairs r in
        let reference = full () in
        if healed = reference then healed
        else begin
          st.repair_mismatches <- st.repair_mismatches + 1;
          reference
        end
  in
  st.stale_adj <- adjacency_of_pairs ~n pairs;
  st.advertised_sum <- st.advertised_sum + List.length pairs;
  st.refreshes <- st.refreshes + 1

let run ?faults ?(incremental = false) ?wal rand ~model ~strategies ~steps ~refresh
    ~pairs_per_step =
  if refresh < 1 || steps < 1 then invalid_arg "Churn_eval.run: steps, refresh >= 1";
  let fault = Option.map Fault.start faults in
  let n = Waypoint.n model in
  let states =
    List.map
      (fun strategy ->
        {
          strategy;
          stale_adj = Array.make n [||];
          advertised_sum = 0;
          refreshes = 0;
          attempted = 0;
          delivered = 0;
          stretch_sum = 0.0;
          repair = None;
          repair_mismatches = 0;
        })
      strategies
  in
  let prev_graph = ref None in
  let link_changes = ref 0 in
  for t = 0 to steps - 1 do
    let g = Waypoint.graph model in
    (match !prev_graph with
    | Some p -> link_changes := !link_changes + count_flips p g
    | None -> ());
    prev_graph := Some g;
    if t mod refresh = 0 then begin
      (* one graph-level notification per refresh — the durability hook
         (rspan churn --wal) logs the topology delta since the last
         refresh, shared across strategies *)
      Option.iter (fun f -> f g) wal;
      List.iter (refresh_state ~n ~incremental g) states
    end;
    (* shared random pairs for a paired comparison *)
    let d0 = Bfs.dist g 0 in
    ignore d0;
    for _ = 1 to pairs_per_step do
      let s = Rand.int rand n and d = Rand.int rand n in
      if s <> d && Bfs.dist_pair g s d > 0 then begin
        let dg = Bfs.dist_pair g s d in
        List.iter
          (fun st ->
            st.attempted <- st.attempted + 1;
            match route ?fault ~t ~n ~stale_adj:st.stale_adj ~current:g s d with
            | Some hops ->
                st.delivered <- st.delivered + 1;
                st.stretch_sum <- st.stretch_sum +. (float_of_int hops /. float_of_int dg)
            | None -> ())
          states
      end
    done;
    Waypoint.step model
  done;
  List.map
    (fun st ->
      {
        name = st.strategy.name;
        steps;
        pairs_attempted = st.attempted;
        delivered = st.delivered;
        mean_stretch =
          (if st.delivered = 0 then 0.0 else st.stretch_sum /. float_of_int st.delivered);
        mean_advertised =
          (if st.refreshes = 0 then 0.0
           else float_of_int st.advertised_sum /. float_of_int st.refreshes);
        link_changes = !link_changes;
        repair_mismatches = st.repair_mismatches;
      })
    states
