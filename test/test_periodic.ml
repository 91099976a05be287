(* Tests for the periodic asynchronous protocol and its stabilization
   bound (Section 2.3 remark: stabilizes within T + 2F after a
   topology change). *)
open Rs_graph
module Periodic = Rs_distributed.Periodic
module Fault = Rs_distributed.Fault

let check = Alcotest.(check bool)

(* dominating-tree construction used for the protocol: (2,0) greedy,
   radius requirement 1 *)
let tree20 g u = Rs_core.Dom_tree_k.gdy_k g ~k:1 u

let tree_r3 g u = Rs_core.Dom_tree.gdy g ~r:3 ~beta:1 u

let test_cold_start_converges () =
  let g = Gen.cycle 10 in
  let period = 4 and radius = 1 and horizon = 30 in
  let res = Periodic.simulate ~initial:g ~events:[] ~period ~radius ~horizon ~tree_of:tree20 () in
  (match res.Periodic.converged_at with
  | None -> Alcotest.fail "never converged"
  | Some t ->
      (* cold start: everyone advertised within period, flood radius 1:
         T + 2F with slack for staggering *)
      check "cold start bound" true (t <= (2 * period) + (2 * radius) + 1));
  check "stays converged" true res.Periodic.matched.(horizon - 1)

let test_cold_start_radius3 () =
  let g = Gen.grid 4 5 in
  let period = 5 and radius = 3 and horizon = 40 in
  let res = Periodic.simulate ~initial:g ~events:[] ~period ~radius ~horizon ~tree_of:tree_r3 () in
  (match res.Periodic.converged_at with
  | None -> Alcotest.fail "never converged"
  | Some t -> check "bound" true (t <= (2 * period) + (2 * radius) + 1));
  check "stays" true res.Periodic.matched.(horizon - 1)

let test_edge_addition_stabilizes () =
  let g = Gen.cycle 12 in
  let period = 4 and radius = 1 and horizon = 60 in
  let events = [ { Periodic.at = 30; add = [ (0, 6) ]; remove = [] } ] in
  let res = Periodic.simulate ~initial:g ~events ~period ~radius ~horizon ~tree_of:tree20 () in
  check "was converged before the event" true res.Periodic.matched.(29);
  (match res.Periodic.converged_at with
  | None -> Alcotest.fail "never re-converged"
  | Some t ->
      (* T + 2F after the change, with stagger slack *)
      check "stabilization bound" true (t <= 30 + (2 * period) + (2 * radius) + 1));
  check "stays converged" true res.Periodic.matched.(horizon - 1)

let test_edge_removal_stabilizes () =
  let g = Gen.grid 3 5 in
  let period = 4 and radius = 1 and horizon = 80 in
  let events = [ { Periodic.at = 30; add = []; remove = [ (0, 1) ] } ] in
  let res = Periodic.simulate ~initial:g ~events ~period ~radius ~horizon ~tree_of:tree20 () in
  (match res.Periodic.converged_at with
  | None -> Alcotest.fail "never re-converged"
  | Some t ->
      (* removals may need soft-state expiry: 2T + 2F slack *)
      check "stabilization bound" true (t <= 30 + (3 * period) + (2 * radius) + 1));
  check "stays converged" true res.Periodic.matched.(horizon - 1)

let test_multiple_events () =
  let g = Gen.cycle 9 in
  let period = 3 and radius = 1 and horizon = 70 in
  let events =
    [ { Periodic.at = 20; add = [ (0, 4) ]; remove = [] };
      { Periodic.at = 40; add = [ (2, 7) ]; remove = [ (0, 4) ] } ]
  in
  let res = Periodic.simulate ~initial:g ~events ~period ~radius ~horizon ~tree_of:tree20 () in
  check "re-converges after both" true (res.Periodic.converged_at <> None);
  check "final state good" true res.Periodic.matched.(horizon - 1)

(* An incremental maintainer wired through [?incremental] must agree
   with the from-scratch target on every round, across topology
   events. *)
let test_incremental_maintainer_agrees () =
  let g = Gen.cycle 9 in
  let period = 3 and radius = 1 and horizon = 70 in
  let events =
    [ { Periodic.at = 20; add = [ (0, 4) ]; remove = [] };
      { Periodic.at = 40; add = [ (2, 7) ]; remove = [ (0, 4) ] } ]
  in
  let maintain =
    Rs_dynamic.Repair.incremental_target (Rs_dynamic.Repair.Gdy_k { k = 1 })
  in
  let res =
    Periodic.simulate ~incremental:maintain ~initial:g ~events ~period ~radius
      ~horizon ~tree_of:tree20 ()
  in
  check "no mismatching rounds" true (res.Periodic.incremental_mismatches = 0);
  check "still converges" true (res.Periodic.converged_at <> None);
  (* and a broken maintainer is caught by the equivalence gate *)
  let res =
    Periodic.simulate ~incremental:(fun _ -> []) ~initial:g ~events ~period
      ~radius ~horizon ~tree_of:tree20 ()
  in
  check "broken maintainer detected" true (res.Periodic.incremental_mismatches > 0)

let test_messages_accounted () =
  let g = Gen.cycle 8 in
  let res =
    Periodic.simulate ~initial:g ~events:[] ~period:4 ~radius:1 ~horizon:12
      ~tree_of:tree20 ()
  in
  (* every node originates 3 times over 12 rounds at 2 transmissions
     each (degree 2, ttl=1 so no forwarding); the two offset-3 nodes'
     last origination (round 11) is still in flight when the horizon
     ends *)
  Alcotest.(check int) "messages" (((8 * 3) - 2) * 2) res.Periodic.messages

let test_rejects_bad_params () =
  let g = Gen.cycle 5 in
  check "period 0" true
    (match Periodic.simulate ~initial:g ~events:[] ~period:0 ~radius:1 ~horizon:5 ~tree_of:tree20 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* Event validation (events must be sorted by [at]) *)

let test_unsorted_events_rejected () =
  let g = Gen.cycle 8 in
  let events =
    [ { Periodic.at = 30; add = [ (0, 4) ]; remove = [] };
      { Periodic.at = 20; add = []; remove = [ (0, 4) ] } ]
  in
  check "unsorted rejected, indices named" true
    (match
       Periodic.simulate ~initial:g ~events ~period:4 ~radius:1 ~horizon:50
         ~tree_of:tree20 ()
     with
    | _ -> false
    | exception Invalid_argument msg ->
        let contains sub =
          let n = String.length msg and k = String.length sub in
          let rec scan i = i + k <= n && (String.sub msg i k = sub || scan (i + 1)) in
          scan 0
        in
        contains "events 0 and 1")

let test_expiry_rejects_bad () =
  let g = Gen.cycle 5 in
  check "expiry 0 rejected" true
    (match
       Periodic.simulate ~expiry:0 ~initial:g ~events:[] ~period:4 ~radius:1 ~horizon:5
         ~tree_of:tree20 ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* Reference copy of the pre-fault protocol (test_hotpath pattern):
   with no fault plan, [simulate] must agree with this on every
   observable. *)

module Ref_periodic = struct
  type entry = { seq : int; nbrs : int array; heard_at : int }
  type msg = { origin : int; mseq : int; mnbrs : int array; ttl : int }

  let canonical (a, b) = if a < b then (a, b) else (b, a)

  module Pair_set = Set.Make (struct
    type t = int * int

    let compare = compare
  end)

  let apply_events g events t =
    List.fold_left
      (fun g ev ->
        if ev.Periodic.at <> t then g
        else begin
          let removals = List.map canonical ev.Periodic.remove in
          let kept =
            Graph.fold_edges
              (fun acc a b ->
                if List.mem (canonical (a, b)) removals then acc else (a, b) :: acc)
              [] g
          in
          Graph.make ~n:(Graph.n g) (List.rev_append ev.Periodic.add kept)
        end)
      g events

  let recompute_tree ~tree_of g cache u =
    let lists = Hashtbl.create 16 in
    Hashtbl.iter (fun origin e -> Hashtbl.replace lists origin e.nbrs) cache;
    Hashtbl.replace lists u (Graph.neighbors g u);
    let verts = Hashtbl.create 32 in
    Hashtbl.iter
      (fun origin nbrs ->
        Hashtbl.replace verts origin ();
        Array.iter (fun w -> Hashtbl.replace verts w ()) nbrs)
      lists;
    let vs =
      Array.of_list (List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) verts []))
    in
    let fwd = Hashtbl.create (Array.length vs) in
    Array.iteri (fun i v -> Hashtbl.replace fwd v i) vs;
    let edges = ref [] in
    Hashtbl.iter
      (fun origin nbrs ->
        let o = Hashtbl.find fwd origin in
        Array.iter (fun w -> edges := (o, Hashtbl.find fwd w) :: !edges) nbrs)
      lists;
    let local = Graph.make ~n:(Array.length vs) !edges in
    let pairs = tree_of local (Hashtbl.find fwd u) in
    List.init (Array.length pairs / 2) (fun i ->
        canonical (vs.(pairs.(2 * i)), vs.(pairs.((2 * i) + 1))))

  let simulate ~initial ~events ~period ~radius ~horizon ~tree_of () =
    let n = Graph.n initial in
    let expiry = 2 * period in
    let caches = Array.init n (fun _ -> (Hashtbl.create 16 : (int, entry) Hashtbl.t)) in
    let trees = Array.make n [] in
    let dirty = Array.make n true in
    let seqs = Array.make n 0 in
    let inboxes = Array.make n ([] : msg list) in
    let outboxes = Array.make n ([] : msg list) in
    let messages = ref 0 in
    let matched = Array.make horizon false in
    let g = ref initial in
    let target_cache = Hashtbl.create 4 in
    let target g =
      let key = Graph.edges g in
      match Hashtbl.find_opt target_cache key with
      | Some s -> s
      | None ->
          let s =
            Graph.fold_vertices
              (fun acc u ->
                let pairs = tree_of g u in
                List.fold_left
                  (fun acc i -> Pair_set.add (canonical (pairs.(2 * i), pairs.((2 * i) + 1))) acc)
                  acc
                  (List.init (Array.length pairs / 2) Fun.id))
              Pair_set.empty g
          in
          Hashtbl.replace target_cache key s;
          s
    in
    for t = 0 to horizon - 1 do
      g := apply_events !g events t;
      let gt = !g in
      for u = 0 to n - 1 do
        dirty.(u) <- true
      done;
      Array.iteri
        (fun u msgs ->
          List.iter
            (fun m ->
              Array.iter
                (fun v ->
                  incr messages;
                  inboxes.(v) <- m :: inboxes.(v))
                (Graph.neighbors gt u))
            msgs)
        outboxes;
      Array.fill outboxes 0 n [];
      for u = 0 to n - 1 do
        List.iter
          (fun m ->
            if m.origin <> u then begin
              let fresher =
                match Hashtbl.find_opt caches.(u) m.origin with
                | Some e -> m.mseq > e.seq
                | None -> true
              in
              if fresher then begin
                Hashtbl.replace caches.(u) m.origin
                  { seq = m.mseq; nbrs = m.mnbrs; heard_at = t };
                dirty.(u) <- true;
                if m.ttl > 1 then
                  outboxes.(u) <- { m with ttl = m.ttl - 1 } :: outboxes.(u)
              end
            end)
          inboxes.(u);
        inboxes.(u) <- []
      done;
      for u = 0 to n - 1 do
        if t mod period = u mod period then begin
          seqs.(u) <- seqs.(u) + 1;
          outboxes.(u) <-
            { origin = u; mseq = seqs.(u); mnbrs = Graph.neighbors gt u; ttl = radius }
            :: outboxes.(u)
        end
      done;
      for u = 0 to n - 1 do
        let stale =
          Hashtbl.fold
            (fun origin e acc -> if t - e.heard_at > expiry then origin :: acc else acc)
            caches.(u) []
        in
        if stale <> [] then begin
          List.iter (Hashtbl.remove caches.(u)) stale;
          dirty.(u) <- true
        end
      done;
      for u = 0 to n - 1 do
        if dirty.(u) then begin
          trees.(u) <- recompute_tree ~tree_of gt caches.(u) u;
          dirty.(u) <- false
        end
      done;
      let union =
        Array.fold_left
          (fun acc es -> List.fold_left (fun acc e -> Pair_set.add e acc) acc es)
          Pair_set.empty trees
      in
      matched.(t) <- Pair_set.equal union (target gt)
    done;
    let last_event = List.fold_left (fun acc ev -> max acc ev.Periodic.at) 0 events in
    let converged_at =
      let rec scan best t =
        if t < last_event then best
        else if matched.(t) then scan (Some t) (t - 1)
        else best
      in
      if horizon = 0 then None else scan None (horizon - 1)
    in
    (converged_at, matched, !messages)
end

let test_no_faults_matches_reference () =
  let scenarios =
    [
      ("cycle cold", Gen.cycle 10, [], 4, 1, 30);
      ( "cycle events",
        Gen.cycle 9,
        [ { Periodic.at = 20; add = [ (0, 4) ]; remove = [] };
          { Periodic.at = 40; add = [ (2, 7) ]; remove = [ (0, 4) ] } ],
        3,
        1,
        70 );
      ( "grid removal",
        Gen.grid 3 5,
        [ { Periodic.at = 30; add = []; remove = [ (0, 1) ] } ],
        4,
        1,
        80 );
    ]
  in
  List.iter
    (fun (name, g, events, period, radius, horizon) ->
      let res =
        Periodic.simulate ~initial:g ~events ~period ~radius ~horizon ~tree_of:tree20 ()
      in
      let ref_conv, ref_matched, ref_messages =
        Ref_periodic.simulate ~initial:g ~events ~period ~radius ~horizon
          ~tree_of:tree20 ()
      in
      check (name ^ " converged_at identical") true
        (res.Periodic.converged_at = ref_conv);
      check (name ^ " matched identical") true (res.Periodic.matched = ref_matched);
      Alcotest.(check int) (name ^ " messages identical") ref_messages
        res.Periodic.messages;
      Alcotest.(check int) (name ^ " nothing lost") 0 res.Periodic.lost)
    scenarios

(* ---------------------------------------------------------------- *)
(* Self-stabilization under faults *)

let test_loss_then_stabilize () =
  let g = Gen.cycle 12 in
  let faults = Fault.make ~drop:0.3 ~until:24 ~seed:11 () in
  let res =
    Periodic.simulate ~faults ~initial:g ~events:[] ~period:4 ~radius:1 ~horizon:80
      ~tree_of:tree20 ()
  in
  Alcotest.(check int) "quiet once the loss window closes" 24 res.Periodic.quiet_at;
  check "losses recorded" true (res.Periodic.lost > 0);
  check "self-stabilizes within a generous bound" true
    (Periodic.self_stabilizes res ~bound:30);
  (match Periodic.stabilization_lag res with
  | None -> Alcotest.fail "no lag reported"
  | Some lag -> check "lag within bound" true (lag >= 0 && lag <= 30));
  check "stays converged" true res.Periodic.matched.(79)

let test_crash_recover_stabilizes () =
  let g = Gen.grid 3 4 in
  let faults =
    Fault.make ~crashes:[ { Fault.node = 5; at = 20; recover = Some 40 } ] ~seed:7 ()
  in
  let res =
    Periodic.simulate ~faults ~initial:g ~events:[] ~period:4 ~radius:1 ~horizon:100
      ~tree_of:tree20 ()
  in
  Alcotest.(check int) "quiet at the recovery" 40 res.Periodic.quiet_at;
  check "re-converges after the recovery" true
    (Periodic.self_stabilizes res ~bound:30);
  check "stays converged" true res.Periodic.matched.(99)

let test_unrecovered_crash_never_quiet () =
  let g = Gen.cycle 10 in
  let faults =
    Fault.make ~crashes:[ { Fault.node = 3; at = 30; recover = None } ] ~seed:7 ()
  in
  (* the crashed node's edges leave the graph when it dies: the live
     nodes should settle on the residual topology once the phantom
     advertisement of node 3 ages out of its neighbors' caches *)
  let events = [ { Periodic.at = 30; add = []; remove = [ (2, 3); (3, 4) ] } ] in
  let run ?expiry () =
    Periodic.simulate ?expiry ~faults ~initial:g ~events ~period:4 ~radius:1
      ~horizon:80 ~tree_of:tree20 ()
  in
  let res = run () in
  Alcotest.(check int) "faults never cease" max_int res.Periodic.quiet_at;
  check "so converged_at is None" true (res.Periodic.converged_at = None);
  check "and the lag is undefined" true (Periodic.stabilization_lag res = None);
  (* ... but the per-round match flags still show recovery with the
     default soft-state expiry ... *)
  check "default expiry clears the phantom" true res.Periodic.matched.(79);
  (* ... and never recover when cached state cannot expire *)
  let frozen = run ~expiry:1000 () in
  check "huge expiry pins the phantom" false frozen.Periodic.matched.(79)

let test_self_stabilization_property () =
  (* Acceptance criterion: on random connected UDGs, with message loss
     <= 0.3 plus a crash/recover event, the protocol self-stabilizes
     once faults cease. *)
  let tested = ref 0 in
  let seed = ref 0 in
  while !tested < 5 && !seed < 40 do
    incr seed;
    let pts =
      Rs_geometry.Sampler.uniform (Rand.create !seed) ~n:22 ~dim:2 ~side:4.0
    in
    let g = Rs_geometry.Unit_ball.udg ~radius:1.6 pts in
    if Connectivity.is_connected g && Graph.m g < 120 then begin
      incr tested;
      let faults =
        Fault.make ~drop:0.25 ~until:30 ~seed:(100 + !seed)
          ~crashes:[ { Fault.node = !seed mod 22; at = 10; recover = Some 30 } ]
          ()
      in
      let res =
        Periodic.simulate ~faults ~initial:g ~events:[] ~period:4 ~radius:1
          ~horizon:120 ~tree_of:tree20 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d quiet at 30" !seed)
        30 res.Periodic.quiet_at;
      check
        (Printf.sprintf "seed %d self-stabilizes" !seed)
        true
        (Periodic.self_stabilizes res ~bound:40)
    end
  done;
  check "found enough connected instances" true (!tested >= 5)

let test_faulty_run_reproducible () =
  let g = Gen.grid 3 4 in
  let run () =
    let faults =
      Fault.make ~drop:0.2 ~dup:0.1 ~delay:1 ~seed:13
        ~crashes:[ { Fault.node = 2; at = 15; recover = Some 35 } ]
        ()
    in
    Periodic.simulate ~faults ~initial:g ~events:[] ~period:4 ~radius:1 ~horizon:60
      ~tree_of:tree20 ()
  in
  let a = run () and b = run () in
  check "identical results from the same plan seed" true
    (a.Periodic.converged_at = b.Periodic.converged_at
    && a.Periodic.matched = b.Periodic.matched
    && a.Periodic.messages = b.Periodic.messages
    && a.Periodic.lost = b.Periodic.lost)

let () =
  Alcotest.run "periodic"
    [
      ( "stabilization",
        [
          Alcotest.test_case "cold start r=1" `Quick test_cold_start_converges;
          Alcotest.test_case "cold start r=3" `Quick test_cold_start_radius3;
          Alcotest.test_case "edge addition" `Quick test_edge_addition_stabilizes;
          Alcotest.test_case "edge removal" `Quick test_edge_removal_stabilizes;
          Alcotest.test_case "multiple events" `Quick test_multiple_events;
          Alcotest.test_case "incremental maintainer" `Quick
            test_incremental_maintainer_agrees;
          Alcotest.test_case "message accounting" `Quick test_messages_accounted;
          Alcotest.test_case "bad params" `Quick test_rejects_bad_params;
          Alcotest.test_case "unsorted events rejected" `Quick test_unsorted_events_rejected;
          Alcotest.test_case "bad expiry rejected" `Quick test_expiry_rejects_bad;
          Alcotest.test_case "no faults = reference" `Quick test_no_faults_matches_reference;
        ] );
      ( "self-stabilization",
        [
          Alcotest.test_case "loss window then stabilize" `Quick test_loss_then_stabilize;
          Alcotest.test_case "crash/recover stabilizes" `Quick test_crash_recover_stabilizes;
          Alcotest.test_case "unrecovered crash + expiry" `Quick test_unrecovered_crash_never_quiet;
          Alcotest.test_case "random UDG property" `Slow test_self_stabilization_property;
          Alcotest.test_case "faulty run reproducible" `Quick test_faulty_run_reproducible;
        ] );
    ]
