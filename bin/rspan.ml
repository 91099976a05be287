(* rspan — remote-spanner command-line tool.

   Generate graphs, build remote-spanners, verify stretch guarantees,
   inspect stats, simulate greedy link-state routing, export DOT.

     rspan gen --family udg -n 200 --seed 7 -o g.txt
     rspan build --algo low-stretch --eps 0.5 g.txt -o h.txt
     rspan verify --alpha 1.5 --beta 0 g.txt h.txt
     rspan verify --alpha 1 --beta 0 -k 2 g.txt h.txt
     rspan stats g.txt [h.txt]
     rspan profile --algo low-stretch --eps 0.5 g.txt
     rspan sim --radius 2 --trace t.jsonl g.txt
     rspan route --src 0 --dst 42 g.txt h.txt
     rspan dot g.txt h.txt -o g.dot
     rspan snapshot store/ --init g.txt --algo exact
     rspan heal --algo exact --deltas d.txt --wal store/ g.txt
     rspan recover store/ -o recovered.txt
     rspan crashtest --seed 7 crash-scratch/

   Every command accepts --stats[=FILE] to enable the metrics registry
   and dump it on exit (human table to stderr, or JSON to FILE). *)

open Cmdliner
open Rs_graph
open Rs_core
module Obs = Rs_obs.Obs
module Json = Rs_obs.Json
module Trace = Rs_obs.Trace

let read_graph path =
  try Ok (Graph_io.load path) with
  | Sys_error msg -> Error (`Msg msg)
  | Failure msg | Invalid_argument msg -> Error (`Msg (path ^ ": " ^ msg))

(* ------------------------------------------------------------------ *)
(* --stats[=FILE]: global observability switch, dumped at exit *)

let obs_dump_json path =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string ~pretty:true (Obs.to_json ()));
        output_char oc '\n')
  with Sys_error msg -> Printf.eprintf "rspan: cannot write stats: %s\n" msg

(* --stats-every runs a ticker domain that appends one JSONL registry
   delta per period (and a final delta at exit). Only the ticker writes
   to the channel; at_exit joins it before closing, so the lines never
   interleave. *)
let obs_periodic path period =
  if period <= 0.0 then begin
    prerr_endline "rspan: --stats-every must be positive";
    exit 124
  end;
  match open_out path with
  | exception Sys_error msg ->
      Printf.eprintf "rspan: cannot write stats: %s\n" msg;
      exit 124
  | oc ->
      let stop = Atomic.make false in
      let ticker =
        Domain.spawn (fun () ->
            let prev = ref None in
            let tick () =
              let next = Obs.snapshot () in
              output_string oc (Json.to_string (Obs.delta_json ?prev:!prev next));
              output_char oc '\n';
              flush oc;
              prev := Some next
            in
            (* sleep in short slices so exit is prompt *)
            let rec loop slept =
              if not (Atomic.get stop) then
                if slept >= period then begin
                  tick ();
                  loop 0.0
                end
                else begin
                  let d = Float.min 0.05 (period -. slept) in
                  Unix.sleepf d;
                  loop (slept +. d)
                end
            in
            loop 0.0;
            tick ())
      in
      at_exit (fun () ->
          Atomic.set stop true;
          Domain.join ticker;
          close_out_noerr oc)

let obs_setup dest every =
  match dest with
  | None ->
      if every <> None then begin
        prerr_endline "rspan: --stats-every requires --stats=FILE";
        exit 124
      end
  | Some dest -> (
      Obs.set_enabled true;
      match every with
      | Some period ->
          if dest = "-" then begin
            prerr_endline "rspan: --stats-every requires --stats=FILE, not '-'";
            exit 124
          end;
          obs_periodic dest period
      | None ->
          at_exit (fun () ->
              match dest with
              | "-" -> prerr_string (Obs.to_table ())
              | path -> obs_dump_json path))

let obs_term =
  let stats =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:
            "Enable in-library metrics; on exit print a human-readable table to \
             stderr, or write JSON to $(docv) when given.")
  in
  let every =
    Arg.(
      value
      & opt (some float) None
      & info [ "stats-every" ] ~docv:"SECS"
          ~doc:
            "With --stats=$(i,FILE): instead of one dump at exit, append a JSONL \
             registry delta (changed counters/gauges/histograms) every $(docv) \
             seconds, plus a final delta at exit.")
  in
  Term.(const obs_setup $ stats $ every)

(* One-line latency digest for the dynamic-repair layer, printed by heal
   and churn when --stats is active and at least one repair ran. *)
let repair_latency_summary () =
  if Obs.enabled () then begin
    let h = Obs.histogram "repair/latency" in
    let n = Obs.histogram_count h in
    if n > 0 then
      Logs.app (fun m ->
          m "repair/latency: count=%d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms"
            n (Obs.quantile h 0.5) (Obs.quantile h 0.9) (Obs.quantile h 0.99)
            (Obs.histogram_max h))
  end

(* The positional GRAPH argument is a plain filename loaded inside each
   command so a malformed or missing file yields a one-line diagnostic
   and a nonzero exit, not a usage dump or an uncaught backtrace. *)
let graph_arg idx =
  Arg.(required & pos idx (some string) None & info [] ~docv:"GRAPH" ~doc:"Graph file (n m header then edge lines).")

let with_graph file f =
  match read_graph file with Error e -> Error e | Ok g -> f g

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout if omitted).")

let emit output content =
  match output with
  | None -> print_string content
  | Some path ->
      (* binary mode: .rsg payloads must not be newline-translated *)
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Route file-system failures (unwritable -o targets, --coords paths)
   through the same one-line-diagnostic exit path as unreadable graph
   files instead of an uncaught Sys_error backtrace. *)
let catch_io f = try f () with Sys_error msg -> Error (`Msg msg)

(* ------------------------------------------------------------------ *)
(* gen *)

let gen_cmd =
  let family =
    Arg.(
      value
      & opt (enum [ ("udg", `Udg); ("gnp", `Gnp); ("grid", `Grid); ("cycle", `Cycle);
                    ("path", `Path); ("complete", `Complete); ("hypercube", `Hypercube);
                    ("tree", `Tree); ("theta", `Theta) ])
          `Udg
      & info [ "family" ] ~docv:"FAMILY" ~doc:"Graph family: udg, gnp, grid, cycle, path, complete, hypercube, tree, theta.")
  in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of vertices (or per-dimension size).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let p = Arg.(value & opt float 0.1 & info [ "p" ] ~doc:"Edge probability for gnp.") in
  let density = Arg.(value & opt float 4.0 & info [ "density" ] ~doc:"Points per unit square for udg.") in
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Branch count for theta.") in
  let coords =
    Arg.(value & opt (some string) None
         & info [ "coords" ] ~docv:"FILE" ~doc:"For udg: also save point coordinates (for 'rspan render').")
  in
  let binary =
    Arg.(value & flag
         & info [ "binary" ]
             ~doc:"Emit the compact binary format (.rsg: magic, counts, \
                   little-endian edge pairs, CRC-32) instead of the text \
                   format. Every command auto-detects it on input.")
  in
  let run () family n seed p density k coords binary output =
    catch_io @@ fun () ->
    let rand = Rand.create seed in
    let g =
      match family with
      | `Udg ->
          let side = sqrt (float_of_int n /. density) in
          let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
          (match coords with Some f -> Rs_geometry.Point_io.save f pts | None -> ());
          Rs_geometry.Unit_ball.udg pts
      | `Gnp -> Gen.erdos_renyi rand n p
      | `Grid ->
          let side = int_of_float (Float.round (sqrt (float_of_int n))) in
          Gen.grid side side
      | `Cycle -> Gen.cycle n
      | `Path -> Gen.path_graph n
      | `Complete -> Gen.complete n
      | `Hypercube -> Gen.hypercube n
      | `Tree -> Gen.random_tree rand n
      | `Theta -> Gen.theta k (max 1 (n / k))
    in
    emit output
      (if binary then Graph_io.to_binary_string g else Graph_io.to_string g);
    Logs.app (fun m -> m "generated: n=%d m=%d" (Graph.n g) (Graph.m g));
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ family $ n $ seed $ p $ density $ k $ coords $ binary
       $ output_arg))
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a graph.") term

(* ------------------------------------------------------------------ *)
(* build *)

let algo_enum =
  [ ("exact", `Exact); ("low-stretch", `Low_stretch); ("low-stretch-gdy", `Low_stretch_gdy);
    ("k-connecting", `K_connecting); ("two-connecting", `Two_connecting);
    ("k-connecting-mis", `K_connecting_mis); ("mpr", `Mpr); ("greedy-spanner", `Greedy);
    ("baswana-sen", `Baswana); ("additive2", `Additive2); ("bfs-tree", `Bfs_tree); ("edge-two-connecting", `Edge_two);
    ("full", `Full) ]

(* The paper's constructions: the tree spec of each --algo, which
   `build` runs through Sharded (under the span name of the matching
   Remote_spanner entry point) and heal/snapshot/serve maintain through
   Repair. *)
type paper =
  [ `Exact | `Low_stretch | `Low_stretch_gdy | `K_connecting | `Two_connecting
  | `K_connecting_mis ]

let paper_spec (algo : paper) ~eps ~k =
  match algo with
  | `Exact -> ("exact_distance", Sharded.Gdy_k { k = 1 })
  | `Low_stretch -> ("low_stretch", Sharded.Mis { r = Remote_spanner.r_of_eps eps })
  | `Low_stretch_gdy -> ("rem_span", Sharded.Gdy { r = Remote_spanner.r_of_eps eps; beta = 1 })
  | `K_connecting -> ("k_connecting", Sharded.Gdy_k { k })
  | `Two_connecting -> ("k_connecting_mis", Sharded.Mis_k { k = 2 })
  | `K_connecting_mis -> ("k_connecting_mis", Sharded.Mis_k { k })

let build_algo algo ~eps ~k ~seed g =
  match algo with
  | #paper as a ->
      let name, spec = paper_spec a ~eps ~k in
      Obs.with_span ("build/" ^ name) (fun () -> Sharded.build ~domains:1 g spec)
  | `Edge_two -> Extensions.edge_two_connecting g
  | `Mpr -> Mpr.relay_union g Mpr.select
  | `Greedy -> Baseline.greedy_spanner g ~k
  | `Baswana -> Baseline.baswana_sen (Rand.create seed) g ~k
  | `Additive2 -> Baseline.additive2 g
  | `Bfs_tree -> Baseline.bfs_tree g ~root:0
  | `Full -> Baseline.full g

let algo_arg =
  Arg.(value & opt (enum algo_enum) `Exact
       & info [ "algo" ] ~docv:"ALGO"
           ~doc:"Construction: exact (1,0)-RS, low-stretch / low-stretch-gdy (1+eps,1-2eps)-RS, k-connecting (1,0)-RS, two-connecting / k-connecting-mis (2,-1)-RS, edge-two-connecting, mpr, greedy-spanner, baswana-sen, additive2, bfs-tree, full.")

let eps_arg = Arg.(value & opt float 0.5 & info [ "eps" ] ~doc:"Stretch parameter for low-stretch.")
let k_arg = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Connectivity / stretch parameter.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed for randomized baselines.")

let build_cmd =
  let run () algo eps k seed graph_file output =
    with_graph graph_file @@ fun g ->
    catch_io @@ fun () ->
    let h = build_algo algo ~eps ~k ~seed g in
    emit output (Graph_io.to_string (Edge_set.to_graph h));
    Logs.app (fun m ->
        m "spanner: %d of %d edges (%.1f%%)" (Edge_set.cardinal h) (Graph.m g)
          (100.0 *. float_of_int (Edge_set.cardinal h) /. float_of_int (max 1 (Graph.m g))));
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ algo_arg $ eps_arg $ k_arg $ seed_arg $ graph_arg 0
       $ output_arg))
  in
  Cmd.v (Cmd.info "build" ~doc:"Build a remote-spanner or baseline spanner.") term

(* ------------------------------------------------------------------ *)
(* profile *)

let profile_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("folded", `Folded) ]) `Json
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: json (full metrics registry) or folded \
             (semicolon-joined call stacks with self time in microseconds, \
             ready for flamegraph.pl or speedscope).")
  in
  let run () algo eps k seed format graph_file output =
    with_graph graph_file @@ fun g ->
    catch_io @@ fun () ->
    (* full instrumentation regardless of --stats; JSON to stdout (or
       -o FILE) so it can be piped straight into schema checks, human
       summary to stderr. *)
    Obs.set_enabled true;
    Obs.reset ();
    let t0 = Obs.now () in
    let h = Obs.with_span "profile" (fun () -> build_algo algo ~eps ~k ~seed g) in
    let dt = Obs.now () -. t0 in
    Obs.set_gauge (Obs.gauge "profile/spanner_edges")
      (float_of_int (Edge_set.cardinal h));
    Obs.set_gauge (Obs.gauge "profile/graph_n") (float_of_int (Graph.n g));
    Obs.set_gauge (Obs.gauge "profile/graph_m") (float_of_int (Graph.m g));
    (match format with
    | `Json -> emit output (Json.to_string ~pretty:true (Obs.to_json ()) ^ "\n")
    | `Folded -> emit output (Obs.folded ()));
    (* stdout carries only the JSON or folded stacks (pipeable into
       schema checks / flamegraph.pl); the human summary goes to stderr *)
    prerr_string (Obs.to_table ());
    Printf.eprintf "profiled build: %d of %d edges in %.1f ms\n" (Edge_set.cardinal h)
      (Graph.m g) (1e3 *. dt);
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ algo_arg $ eps_arg $ k_arg $ seed_arg $ format
       $ graph_arg 0 $ output_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Build a spanner under full instrumentation and emit the JSON metrics \
          registry or a folded-stack profile (stdout, or -o FILE); spans, \
          counters and histograms included.")
    term

(* ------------------------------------------------------------------ *)
(* top *)

let top_cmd =
  let interval =
    Arg.(value & opt float 0.5 & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh interval (seconds).")
  in
  let repeat =
    Arg.(value & opt int 10
         & info [ "repeat" ] ~docv:"N" ~doc:"Number of instrumented builds the background workload performs.")
  in
  let run () algo eps k seed interval repeat graph_file =
    with_graph graph_file @@ fun g ->
    if interval <= 0.0 then Error (`Msg "top: --interval must be positive")
    else if repeat < 1 then Error (`Msg "top: --repeat must be >= 1")
    else begin
      Obs.set_enabled true;
      Obs.reset ();
      let done_flag = Atomic.make false in
      let worker =
        (* workload in its own domain; its metrics land in that domain's
           shard and the live view merges them on every frame *)
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.set done_flag true)
            @@ fun () ->
            for _ = 1 to repeat do
              ignore (Obs.with_span "top/build" (fun () -> build_algo algo ~eps ~k ~seed g))
            done)
      in
      let ansi = Unix.isatty Unix.stdout in
      let frame = ref 0 in
      let print_frame tag =
        incr frame;
        if ansi then print_string "\027[2J\027[H";
        Printf.printf "rspan top — frame %d (%s), interval %gs\n%s%!" !frame tag
          interval (Obs.to_table ())
      in
      while not (Atomic.get done_flag) do
        print_frame "live";
        Unix.sleepf interval
      done;
      (* join re-raises any workload exception *)
      Domain.join worker;
      print_frame "final";
      Ok ()
    end
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ algo_arg $ eps_arg $ k_arg $ seed_arg $ interval
       $ repeat $ graph_arg 0))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run an instrumented build workload in a background domain and \
          re-render the live metrics registry (counters, quantiles, profile \
          tree) every --interval seconds until it finishes.")
    term

(* ------------------------------------------------------------------ *)
(* fault-injection flags, shared by sim / periodic / churn *)

module Fault = Rs_distributed.Fault

type fault_flags = {
  loss : float;
  fdup : float;
  fdelay : int;
  jitter : int;
  until : int option;
  crash_plan : string option;
  fault_seed : int;
}

let fault_term =
  let loss =
    Arg.(value & opt float 0.0
         & info [ "loss" ] ~docv:"P" ~doc:"Per-transmission drop probability in [0,1].")
  in
  let fdup =
    Arg.(value & opt float 0.0
         & info [ "dup" ] ~docv:"P" ~doc:"Per-transmission duplication probability in [0,1].")
  in
  let fdelay =
    Arg.(value & opt int 0
         & info [ "delay" ] ~docv:"D" ~doc:"Fixed extra delivery delay (rounds).")
  in
  let jitter =
    Arg.(value & opt int 0
         & info [ "jitter" ] ~docv:"J" ~doc:"Additional uniform delivery delay in [0..$(docv)] rounds.")
  in
  let until =
    Arg.(value & opt (some int) None
         & info [ "fault-until" ] ~docv:"R"
             ~doc:"Apply the stochastic faults (loss/dup/delay/jitter) only to rounds < $(docv); default: forever.")
  in
  let crash_plan =
    Arg.(value & opt (some string) None
         & info [ "crash-plan" ] ~docv:"FILE"
             ~doc:"Crash/flap schedule: lines 'crash NODE AT [RECOVER]' and 'flap U V DOWN UP' ('#' comments).")
  in
  let fault_seed =
    Arg.(value & opt int 1
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Seed of the fault plan's random stream; a fixed seed makes faulty runs reproducible.")
  in
  Term.(
    const (fun loss fdup fdelay jitter until crash_plan fault_seed ->
        { loss; fdup; fdelay; jitter; until; crash_plan; fault_seed })
    $ loss $ fdup $ fdelay $ jitter $ until $ crash_plan $ fault_seed)

(* [None] when no flag engages a fault, so the byte-identical fast path
   of the simulators is taken by default. *)
let build_faults f =
  let schedule =
    match f.crash_plan with
    | None -> Ok ([], [])
    | Some path -> (
        try Ok (Fault.load_schedule path)
        with Failure msg | Sys_error msg -> Error (`Msg msg))
  in
  match schedule with
  | Error e -> Error e
  | Ok (crashes, flaps) ->
      if f.loss = 0.0 && f.fdup = 0.0 && f.fdelay = 0 && f.jitter = 0
         && crashes = [] && flaps = []
      then Ok None
      else (
        try
          Ok
            (Some
               (Fault.make ~drop:f.loss ~dup:f.fdup ~delay:f.fdelay
                  ~jitter:f.jitter ?until:f.until ~crashes ~flaps
                  ~seed:f.fault_seed ()))
        with Invalid_argument msg -> Error (`Msg msg))

(* ------------------------------------------------------------------ *)
(* sim *)

let sim_cmd =
  let radius = Arg.(value & opt int 2 & info [ "radius" ] ~doc:"Flooding radius (rounds).") in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc:"Write a JSONL event trace of the run.")
  in
  let run () radius trace ff graph_file =
    with_graph graph_file @@ fun g ->
    match build_faults ff with
    | Error e -> Error e
    | Ok faults -> (
    match Option.map Trace.to_file trace with
    | exception Sys_error msg -> Error (`Msg msg)
    | sink ->
    let finish () = Option.iter Trace.close sink in
    match Rs_distributed.Sim.collect_neighborhoods ?trace:sink ?faults g ~radius with
    | exception e ->
        finish ();
        raise e
    | _views, stats ->
        finish ();
        let module Sim = Rs_distributed.Sim in
        Logs.app (fun m ->
            m "collect radius=%d: rounds=%d messages=%d payload=%d" radius
              stats.Sim.rounds stats.Sim.messages stats.Sim.payload);
        Logs.app (fun m ->
            m "busiest round: %d messages, %d payload; halted nodes: %d"
              stats.Sim.max_round_messages stats.Sim.max_round_payload
              stats.Sim.halted_nodes);
        if faults <> None then
          Logs.app (fun m ->
              m "faults: dropped=%d duplicated=%d delayed=%d (delivery %.1f%%)"
                stats.Sim.dropped stats.Sim.duplicated stats.Sim.delayed
                (100.0
                 *. float_of_int stats.Sim.messages
                 /. float_of_int (max 1 (stats.Sim.messages + stats.Sim.dropped))));
        Option.iter
          (fun f -> Logs.app (fun m -> m "trace: %s (%d events)" f
                                 (match sink with Some s -> Trace.events s | None -> 0)))
          trace;
        Ok ())
  in
  let term =
    Term.(term_result (const run $ obs_term $ radius $ trace $ fault_term $ graph_arg 0))
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Run the LOCAL-model neighborhood collection (phase 1 of RemSpan) and \
          report traffic statistics — optionally under seeded fault injection \
          (--loss, --dup, --delay, --jitter, --crash-plan, --fault-seed); \
          --trace captures a replayable JSONL event log.")
    term

(* ------------------------------------------------------------------ *)
(* periodic *)

let periodic_cmd =
  let module Periodic = Rs_distributed.Periodic in
  let period = Arg.(value & opt int 4 & info [ "period" ] ~doc:"Origination period T (rounds).") in
  let radius = Arg.(value & opt int 1 & info [ "radius" ] ~doc:"Advertisement flooding TTL.") in
  let horizon = Arg.(value & opt int 60 & info [ "horizon" ] ~doc:"Simulated rounds.") in
  let expiry =
    Arg.(value & opt (some int) None
         & info [ "expiry" ] ~docv:"E" ~doc:"Soft-state lifetime (rounds; default 2*period).")
  in
  let sweep =
    Arg.(value & opt (some string) None
         & info [ "sweep" ] ~docv:"LOSSES"
             ~doc:"Comma-separated loss rates; run once per rate and print a degradation table (delivery and convergence lag vs. loss).")
  in
  let bound =
    Arg.(value & opt (some int) None
         & info [ "assert-bound" ] ~docv:"B"
             ~doc:"Fail unless every run self-stabilizes within $(docv) rounds of faults ceasing.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc:"Write a JSONL event trace (single run only).")
  in
  let incremental =
    Arg.(value & flag
         & info [ "incremental" ]
             ~doc:"Maintain the centralized target spanner by incremental repair \
                   (lib/dynamic) alongside the protocol and fail if it ever \
                   diverges from the from-scratch construction.")
  in
  let run () period radius horizon expiry sweep bound trace incremental ff graph_file =
    with_graph graph_file @@ fun g ->
    let tree_of g u = Rs_core.Dom_tree_k.gdy_k g ~k:1 u in
    let losses =
      match sweep with
      | None -> Ok [ ff.loss ]
      | Some s -> (
          try
            Ok (List.map (fun x -> float_of_string (String.trim x))
                  (String.split_on_char ',' s))
          with Failure _ -> Error (`Msg ("cannot parse --sweep: " ^ s)))
    in
    match losses with
    | Error e -> Error e
    | Ok losses ->
    if sweep <> None && trace <> None then
      Error (`Msg "--sweep and --trace cannot be combined")
    else
    (* a sweep needs faults to cease for convergence lag to be defined *)
    let ff =
      if sweep <> None && ff.until = None then { ff with until = Some (horizon / 2) }
      else ff
    in
    let one loss =
      match build_faults { ff with loss } with
      | Error e -> Error e
      | Ok faults -> (
          match Option.map Trace.to_file trace with
          | exception Sys_error msg -> Error (`Msg msg)
          | sink ->
              let maintainer =
                (* fresh repair state per run; the same (2,0)-tree family
                   the protocol's tree_of computes *)
                if incremental then
                  Some (Rs_dynamic.Repair.incremental_target (Rs_dynamic.Repair.Gdy_k { k = 1 }))
                else None
              in
              let res =
                Fun.protect ~finally:(fun () -> Option.iter Trace.close sink)
                @@ fun () ->
                Periodic.simulate ?trace:sink ?faults ?expiry ?incremental:maintainer
                  ~initial:g ~events:[] ~period ~radius ~horizon ~tree_of ()
              in
              let delivery =
                100.0
                *. float_of_int res.Periodic.messages
                /. float_of_int (max 1 (res.Periodic.messages + res.Periodic.lost))
              in
              let lag = Periodic.stabilization_lag res in
              Logs.app (fun m ->
                  m "loss=%.2f delivered=%d lost=%d (%.1f%%) converged_at=%s lag=%s"
                    loss res.Periodic.messages res.Periodic.lost delivery
                    (match res.Periodic.converged_at with
                    | Some t -> string_of_int t
                    | None -> "never")
                    (match lag with Some l -> string_of_int l | None -> "-"));
              if incremental then
                Logs.app (fun m ->
                    m "incremental repair: %d mismatching rounds of %d"
                      res.Periodic.incremental_mismatches horizon);
              if res.Periodic.incremental_mismatches > 0 then
                Error
                  (`Msg
                    (Printf.sprintf
                       "loss=%.2f: incremental repair diverged from the \
                        from-scratch target in %d rounds"
                       loss res.Periodic.incremental_mismatches))
              else
                match bound with
                | Some b when not (Periodic.self_stabilizes res ~bound:b) ->
                    Error
                      (`Msg
                        (Printf.sprintf
                           "loss=%.2f: did not self-stabilize within %d rounds" loss b))
                | _ -> Ok ())
    in
    List.fold_left
      (fun acc loss -> match acc with Error _ -> acc | Ok () -> one loss)
      (Ok ()) losses
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ period $ radius $ horizon $ expiry $ sweep $ bound
       $ trace $ incremental $ fault_term $ graph_arg 0))
  in
  Cmd.v
    (Cmd.info "periodic"
       ~doc:
         "Run the Section-2.3 periodic link-state protocol, optionally under \
          seeded fault injection, and report delivery and self-stabilization \
          lag; --sweep prints graceful degradation as a function of loss rate.")
    term

(* ------------------------------------------------------------------ *)
(* verify *)

let edge_set_of g file =
  match read_graph file with
  | Error e -> Error e
  | Ok hg ->
      if Graph.n hg <> Graph.n g then Error (`Msg "spanner has a different vertex count")
      else begin
        let h = Edge_set.create g in
        try
          Graph.iter_edges (fun u v -> Edge_set.add h u v) hg;
          Ok h
        with Not_found -> Error (`Msg "spanner contains an edge absent from the graph")
      end

let verify_cmd =
  let alpha = Arg.(value & opt float 1.0 & info [ "alpha" ] ~doc:"Multiplicative stretch.") in
  let beta = Arg.(value & opt float 0.0 & info [ "beta" ] ~doc:"Additive stretch.") in
  let k = Arg.(value & opt int 1 & info [ "k" ] ~doc:"Check k-connecting stretch up to k (k=1: plain remote-spanner).") in
  let edge = Arg.(value & flag & info [ "edge" ] ~doc:"With -k: use edge-disjoint paths instead of vertex-disjoint.") in
  let spanner_file = Arg.(required & pos 1 (some string) None & info [] ~docv:"SPANNER" ~doc:"Spanner edge file.") in
  let run () alpha beta k edge graph_file spanner_file =
    with_graph graph_file @@ fun g ->
    match edge_set_of g spanner_file with
    | Error e -> Error e
    | Ok h ->
        let ok =
          if k <= 1 then Verify.is_remote_spanner g h ~alpha ~beta
          else if edge then Verify.is_edge_k_connecting g h ~alpha ~beta ~k
          else Verify.is_k_connecting g h ~alpha ~beta ~k
        in
        if ok then begin
          Logs.app (fun m -> m "OK: (%g, %g)-remote-spanner%s" alpha beta
                       (if k > 1 then
                          Printf.sprintf " (%s%d-connecting)" (if edge then "edge-" else "") k
                        else ""));
          Ok ()
        end
        else begin
          let vs =
            if k <= 1 then Verify.remote_spanner_violations g h ~alpha ~beta ~max_violations:5
            else if edge then
              Verify.edge_k_connecting_violations g h ~alpha ~beta ~k ~max_violations:5
            else Verify.k_connecting_violations g h ~alpha ~beta ~k ~max_violations:5
          in
          List.iter
            (fun v -> Logs.app (fun m -> m "violation: %a" Verify.pp_violation v))
            vs;
          Error (`Msg "stretch violated")
        end
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ alpha $ beta $ k $ edge $ graph_arg 0 $ spanner_file))
  in
  Cmd.v (Cmd.info "verify" ~doc:"Verify the (alpha, beta)[, k-connecting] remote-spanner property.") term

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let spanner_file =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"SPANNER"
             ~doc:"Optional spanner: also report its edge count against the Theorem-2 \
                   2(1+log Delta) approximation bound.")
  in
  let run () graph_file spanner_file =
    with_graph graph_file @@ fun g ->
    let degrees = Graph.fold_vertices (fun acc u -> Graph.degree g u :: acc) [] g in
    let avg_deg =
      if degrees = [] then 0.0
      else float_of_int (List.fold_left ( + ) 0 degrees) /. float_of_int (List.length degrees)
    in
    Logs.app (fun m -> m "n=%d m=%d" (Graph.n g) (Graph.m g));
    Logs.app (fun m -> m "degree: max=%d avg=%.2f min=%d" (Graph.max_degree g) avg_deg
                 (Connectivity.min_degree g));
    Logs.app (fun m -> m "components=%d diameter=%d" (Connectivity.component_count g)
                 (Bfs.diameter g));
    match spanner_file with
    | None -> Ok ()
    | Some file -> (
        match edge_set_of g file with
        | Error e -> Error e
        | Ok h ->
            (* Theorem 2: the greedy construction's edge count is within
               a factor 2(1 + log Delta) of the optimal k-connecting
               (1,0)-RS, so edges / factor lower-bounds the optimum. *)
            let edges = Edge_set.cardinal h in
            let delta = max 2 (Graph.max_degree g) in
            let factor = 2.0 *. (1.0 +. log (float_of_int delta)) in
            Logs.app (fun m ->
                m "spanner: %d of %d edges (%.1f%%)" edges (Graph.m g)
                  (100.0 *. float_of_int edges /. float_of_int (max 1 (Graph.m g))));
            Logs.app (fun m ->
                m "Th.2 bound: 2(1+log Delta) = %.2f (Delta = %d); implied optimum >= %.0f edges"
                  factor delta
                  (Float.ceil (float_of_int edges /. factor)));
            if Graph.n g <= 64 then begin
              let lb = Optimal.lower_bound_trivial g ~k:1 in
              Logs.app (fun m ->
                  m "exact multicover lower bound: %d edges (ratio <= %.2f, bound %.2f)"
                    lb
                    (float_of_int edges /. float_of_int (max 1 lb))
                    factor)
            end;
            Ok ())
  in
  let term = Term.(term_result (const run $ obs_term $ graph_arg 0 $ spanner_file)) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print graph statistics; with a second argument, spanner size vs. the Theorem-2 bound.")
    term

(* ------------------------------------------------------------------ *)
(* route *)

let route_cmd =
  let src = Arg.(value & opt int 0 & info [ "src" ] ~doc:"Source vertex.") in
  let dst = Arg.(value & opt int 1 & info [ "dst" ] ~doc:"Destination vertex.") in
  let spanner_file = Arg.(required & pos 1 (some string) None & info [] ~docv:"SPANNER" ~doc:"Advertised sub-graph file.") in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc:"Write a JSONL trace of the route (route_start, hop, route_end).")
  in
  let run () src dst trace graph_file spanner_file =
    with_graph graph_file @@ fun g ->
    match edge_set_of g spanner_file with
    | Error e -> Error e
    | Ok h -> (
        match Option.map Trace.to_file trace with
        | exception Sys_error msg -> Error (`Msg msg)
        | sink ->
        let emit_ev fields = Option.iter (fun s -> Trace.emit s fields) sink in
        Fun.protect ~finally:(fun () -> Option.iter Trace.close sink) @@ fun () ->
        emit_ev
          [ ("ev", Json.String "route_start"); ("src", Json.Int src); ("dst", Json.Int dst);
            ("shortest", Json.Int (Bfs.dist_pair g src dst)) ];
        let ls = Rs_routing.Link_state.make g h in
        (match Rs_routing.Link_state.route ls ~src ~dst with
        | None ->
            emit_ev [ ("ev", Json.String "route_end"); ("delivered", Json.Bool false) ];
            Error (`Msg "destination unreachable")
        | Some p ->
            if sink <> None then
              List.iteri
                (fun i v ->
                  emit_ev [ ("ev", Json.String "hop"); ("step", Json.Int i); ("node", Json.Int v) ])
                (p : Path.t :> int list);
            emit_ev
              [ ("ev", Json.String "route_end"); ("delivered", Json.Bool true);
                ("hops", Json.Int (Path.length p)) ];
            Logs.app (fun m ->
                m "route (%d hops, shortest %d): %a" (Path.length p)
                  (Bfs.dist_pair g src dst) Path.pp p);
            Ok ()))
  in
  let term =
    Term.(term_result (const run $ obs_term $ src $ dst $ trace $ graph_arg 0 $ spanner_file))
  in
  Cmd.v (Cmd.info "route" ~doc:"Greedy link-state route over an advertised sub-graph.") term

(* ------------------------------------------------------------------ *)
(* dot *)

let dot_cmd =
  let spanner_file = Arg.(value & pos 1 (some string) None & info [] ~docv:"SPANNER" ~doc:"Optional spanner to highlight.") in
  let run () graph_file spanner_file output =
    with_graph graph_file @@ fun g ->
    match spanner_file with
    | None -> catch_io (fun () -> emit output (Graph_io.to_dot g); Ok ())
    | Some file -> (
        match edge_set_of g file with
        | Error e -> Error e
        | Ok h ->
            catch_io (fun () -> emit output (Graph_io.to_dot ~highlight:h g); Ok ()))
  in
  let term = Term.(term_result (const run $ obs_term $ graph_arg 0 $ spanner_file $ output_arg)) in
  Cmd.v (Cmd.info "dot" ~doc:"Export Graphviz DOT, optionally highlighting a spanner.") term

(* ------------------------------------------------------------------ *)
(* render *)

let render_cmd =
  let coords_file =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"COORDS" ~doc:"Coordinate file written by 'rspan gen --coords'.")
  in
  let spanner_file =
    Arg.(value & pos 2 (some string) None & info [] ~docv:"SPANNER" ~doc:"Optional spanner to highlight ('#').")
  in
  let width = Arg.(value & opt int 76 & info [ "width" ] ~doc:"Canvas width.") in
  let height = Arg.(value & opt int 28 & info [ "height" ] ~doc:"Canvas height.") in
  let run () graph_file coords_file spanner_file width height =
    with_graph graph_file @@ fun g ->
    match (try Ok (Rs_geometry.Point_io.load coords_file) with Failure m | Sys_error m -> Error (`Msg m)) with
    | Error e -> Error e
    | Ok pts -> (
        let draw spanner =
          print_endline (Rs_geometry.Render.render ~width ~height ?spanner pts g);
          Ok ()
        in
        match spanner_file with
        | None -> draw None
        | Some file -> (
            match edge_set_of g file with Error e -> Error e | Ok h -> draw (Some h)))
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ graph_arg 0 $ coords_file $ spanner_file $ width $ height))
  in
  Cmd.v (Cmd.info "render" ~doc:"ASCII-render a geometric graph (and optionally a spanner).") term

(* ------------------------------------------------------------------ *)
(* durable store: flags shared by heal / churn / snapshot / recover *)

module Wal = Rs_store.Wal
module Store = Rs_store.Store

let policy_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Wal.policy_of_string s) in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Wal.policy_to_string p))

(* For commands where --wal is optional, --fsync without it is misuse:
   there is no log to sync, so the flag would silently do nothing. *)
let fsync_arg =
  Arg.(
    value
    & opt (some policy_conv) None
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "WAL durability: $(b,always) (fsync every append), $(b,every:N), or \
           $(b,never). Requires --wal; defaults to $(b,always).")

let resolve_fsync ~wal fsync =
  match (fsync, wal) with
  | Some _, None -> Error (`Msg "--fsync requires --wal (there is no log to sync)")
  | _ -> Ok (Option.value fsync ~default:Wal.Always)

(* snapshot / recover always operate on a store; keep the plain default *)
let store_fsync_arg =
  Arg.(
    value
    & opt policy_conv Wal.Always
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:"WAL durability: $(b,always) (fsync every append), $(b,every:N), or $(b,never).")

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Durable store directory: snapshot the initial state and append every \
           applied topology delta to a checksummed write-ahead log under $(docv), \
           so 'rspan recover' can rebuild the spanner state after a crash.")

(* store-layer failures (existing store, corrupt files, failed recovery
   verification) exit through the same one-line path as bad graph files *)
let catch_store f =
  try f () with
  | Failure msg | Sys_error msg -> Error (`Msg msg)
  | Rs_store.Binio.Corrupt msg -> Error (`Msg ("corrupt store: " ^ msg))

(* ------------------------------------------------------------------ *)
(* churn *)

let churn_cmd =
  let n = Arg.(value & opt int 60 & info [ "n" ] ~doc:"Number of mobile nodes.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let speed = Arg.(value & opt float 0.1 & info [ "speed" ] ~doc:"Max node speed per step.") in
  let refresh = Arg.(value & opt int 8 & info [ "refresh" ] ~doc:"Advertisement refresh period (steps).") in
  let steps = Arg.(value & opt int 40 & info [ "steps" ] ~doc:"Simulation length (steps).") in
  let side = Arg.(value & opt float 4.0 & info [ "side" ] ~doc:"Square side (unit radio range).") in
  let incremental =
    Arg.(value & flag
         & info [ "incremental" ]
             ~doc:"Maintain spanner advertisements by incremental repair \
                   (lib/dynamic) instead of from-scratch rebuilds at each \
                   refresh; every refresh is gated against the rebuild and \
                   the command fails on any divergence.")
  in
  let run () n seed speed refresh steps side incremental wal fsync ff =
    match build_faults ff with
    | Error e -> Error e
    | Ok faults ->
    match resolve_fsync ~wal fsync with
    | Error e -> Error e
    | Ok fsync ->
    let module W = Rs_mobility.Waypoint in
    let module C = Rs_mobility.Churn_eval in
    let model =
      W.create (Rand.create seed) ~n ~side ~speed_min:(speed /. 2.0) ~speed_max:speed
        ~pause:2
    in
    let module Repair = Rs_dynamic.Repair in
    let strategies =
      [ C.strategy "full LS" Baseline.full;
        C.strategy ~spec:(Repair.Gdy_k { k = 1 }) "(1,0)-RS"
          Remote_spanner.exact_distance;
        C.strategy
          ~spec:(Repair.Mis { r = Remote_spanner.r_of_eps 0.5 })
          "(1.5,0)-RS"
          (fun g -> Remote_spanner.low_stretch g ~eps:0.5);
        C.strategy ~spec:(Repair.Mis_k { k = 2 }) "2conn-RS"
          Remote_spanner.two_connecting ]
    in
    (* the durability hook: first refresh creates the store (one
       maintained state per spec-carrying strategy), later refreshes
       log the topology diff since the previous one *)
    let store = ref None in
    let wal_hook =
      Option.map
        (fun dir g ->
          match !store with
          | None ->
              let specs = List.filter_map (fun s -> s.C.spec) strategies in
              store := Some (Store.create ~policy:fsync ~dir ~specs g)
          | Some s -> ignore (Store.sync_to s g))
        wal
    in
    match
      catch_store @@ fun () ->
      Ok
        (C.run ?faults ?wal:wal_hook ~incremental (Rand.create (seed + 1)) ~model
           ~strategies ~steps ~refresh ~pairs_per_step:6)
    with
    | Error e -> Error e
    | Ok reports ->
    Option.iter
      (fun s ->
        Logs.app (fun m -> m "wal: %s sealed at seq %d" (Store.dir s) (Store.seq s));
        Store.close s)
      !store;
    List.iter
      (fun r ->
        Logs.app (fun m ->
            m "%-12s delivery %5.1f%%  stretch %.3f  advertised %.0f%s" r.C.name
              (100.0 *. float_of_int r.C.delivered /. float_of_int (max 1 r.C.pairs_attempted))
              r.C.mean_stretch r.C.mean_advertised
              (if incremental then
                 Printf.sprintf "  repair mismatches %d" r.C.repair_mismatches
               else "")))
      reports;
    repair_latency_summary ();
    let mismatches =
      List.fold_left (fun acc r -> acc + r.C.repair_mismatches) 0 reports
    in
    if mismatches > 0 then
      Error
        (`Msg
          (Printf.sprintf
             "incremental repair diverged from from-scratch rebuilds at %d refreshes"
             mismatches))
    else Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ n $ seed $ speed $ refresh $ steps $ side $ incremental
       $ wal_arg $ fsync_arg $ fault_term))
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Routing-under-mobility comparison of advertised sub-graphs; --wal logs \
          the refresh-boundary topology deltas to a durable store.")
    term

(* ------------------------------------------------------------------ *)
(* heal *)

(* The constructions the dynamic-repair layer can maintain: the paper
   rows of `rspan build`. *)
let repair_spec_of algo ~eps ~k =
  match algo with
  | #paper as a -> Ok (snd (paper_spec a ~eps ~k))
  | _ ->
      Error
        (`Msg
          "heal supports --algo exact, low-stretch, low-stretch-gdy, \
           k-connecting, two-connecting and k-connecting-mis")

let heal_cmd =
  let module Repair = Rs_dynamic.Repair in
  let module Delta = Rs_dynamic.Delta in
  let deltas_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "deltas" ] ~docv:"FILE"
          ~doc:
            "Topology delta file: lines 'add U V', 'remove U V', 'down U', \
             'up U V1 V2 ...' ('#' comments).")
  in
  let step =
    Arg.(
      value & flag
      & info [ "step" ]
          ~doc:
            "Apply the delta file one operation at a time (one repair per op) \
             instead of as a single batch.")
  in
  let dirty_radius =
    Arg.(
      value
      & opt (some int) None
      & info [ "dirty-radius" ] ~docv:"R"
          ~doc:
            "Override the construction's locality radius for dirty-set tracking \
             (an under-estimate exercises the escalation ladder).")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "Skip the final from-scratch equivalence and (alpha,beta) stretch \
             checks; report repair cost only.")
  in
  let run () algo eps k deltas_file step no_verify dirty_radius wal fsync graph_file
      output =
    match (wal, dirty_radius) with
    | Some _, Some _ -> Error (`Msg "--wal cannot be combined with --dirty-radius")
    | _ -> (
    match resolve_fsync ~wal fsync with
    | Error e -> Error e
    | Ok fsync -> (
    with_graph graph_file @@ fun g ->
    match repair_spec_of algo ~eps ~k with
    | Error e -> Error e
    | Ok spec -> (
        match
          try Ok (Delta.load deltas_file)
          with Failure m | Sys_error m -> Error (`Msg m)
        with
        | Error e -> Error e
        | Ok ops -> (
            let heal () =
              let batches = if step then List.map (fun op -> [ op ]) ops else [ ops ] in
              let total = ref 0 in
              match wal with
              | None ->
                  let st = Repair.init spec g in
                  List.iteri
                    (fun i batch ->
                      let o = Repair.apply ?dirty_radius st batch in
                      total := !total + o.Repair.rebuilt;
                      Logs.app (fun m ->
                          m "delta %d: %a" i Repair.pp_outcome o))
                    batches;
                  (st, !total, fun () -> ())
              | Some dir ->
                  let store = Store.create ~policy:fsync ~dir ~specs:[ spec ] g in
                  List.iteri
                    (fun i batch ->
                      match Store.append store batch with
                      | [] ->
                          Logs.app (fun m -> m "delta %d: quiescent (not logged)" i)
                      | os ->
                          List.iter
                            (fun o ->
                              total := !total + o.Repair.rebuilt;
                              Logs.app (fun m ->
                                  m "delta %d: %a" i Repair.pp_outcome o))
                            os)
                    batches;
                  let st = List.assoc spec (Store.states store) in
                  ( st,
                    !total,
                    fun () ->
                      Logs.app (fun m ->
                          m "wal: %s sealed at seq %d" (Store.dir store)
                            (Store.seq store));
                      Store.close store )
            in
            match heal () with
            | exception Invalid_argument msg -> Error (`Msg (deltas_file ^ ": " ^ msg))
            | exception Failure msg -> Error (`Msg msg)
            | st, total_rebuilt, seal -> (
                let g' = Repair.graph st in
                let h = Repair.spanner st in
                Logs.app (fun m ->
                    m "healed: n=%d m=%d, spanner %d edges, %d of %d trees recomputed"
                      (Graph.n g') (Graph.m g') (Edge_set.cardinal h) total_rebuilt
                      (Graph.n g'));
                seal ();
                repair_latency_summary ();
                let write () =
                  catch_io (fun () ->
                      emit output (Graph_io.to_string (Edge_set.to_graph h));
                      Ok ())
                in
                if no_verify then write ()
                else
                  match Repair.check ~what:"heal" g' [ (spec, h) ] with
                  | exception Failure msg -> Error (`Msg msg)
                  | () ->
                      Logs.app (fun m -> m "equivalence: healed spanner = from-scratch build");
                      Option.iter
                        (fun (alpha, beta) ->
                          Logs.app (fun m -> m "verified: (%g, %g)-remote-spanner" alpha beta))
                        (Repair.alpha_beta spec);
                      write ())))))
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ algo_arg $ eps_arg $ k_arg $ deltas_arg $ step
       $ no_verify $ dirty_radius $ wal_arg $ fsync_arg $ graph_arg 0 $ output_arg))
  in
  Cmd.v
    (Cmd.info "heal"
       ~doc:
         "Apply a topology delta file to a graph and incrementally repair its \
          remote-spanner (recomputing only dirty nodes' trees), reporting repair \
          cost, escalations and equivalence against a from-scratch rebuild; \
          -o writes the healed spanner, --wal makes every applied delta durable.")
    term

(* ------------------------------------------------------------------ *)
(* snapshot *)

let store_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"STORE" ~doc:"Durable store directory.")

let snapshot_cmd =
  let init =
    Arg.(
      value
      & opt (some string) None
      & info [ "init" ] ~docv:"GRAPH"
          ~doc:
            "Create a fresh store at $(b,STORE) from this graph file (maintaining \
             the --algo construction) instead of snapshotting an existing one.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "After publishing the snapshot, drop the WAL segments and older \
             snapshots it subsumes.")
  in
  let run () algo eps k dir init compact fsync =
    match init with
    | Some graph_file ->
        with_graph graph_file @@ fun g ->
        (match repair_spec_of algo ~eps ~k with
        | Error e -> Error e
        | Ok spec ->
            catch_store @@ fun () ->
            let store = Store.create ~policy:fsync ~dir ~specs:[ spec ] g in
            Logs.app (fun m ->
                m "store %s: initialized at seq 0 (n=%d m=%d, fsync %s)" dir
                  (Graph.n g) (Graph.m g)
                  (Wal.policy_to_string fsync));
            Store.close store;
            Ok ())
    | None ->
        catch_store @@ fun () ->
        let store, r = Store.recover ~policy:fsync ~dir () in
        let path =
          if compact then Store.compact store else Store.write_snapshot store
        in
        Logs.app (fun m ->
            m "store %s: %s at seq %d -> %s%s" dir
              (if compact then "compacted" else "snapshot")
              (Store.seq store) path
              (if r.Store.replayed > 0 then
                 Printf.sprintf " (replayed %d wal records)" r.Store.replayed
               else ""));
        Store.close store;
        Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ algo_arg $ eps_arg $ k_arg $ store_pos $ init
       $ compact $ store_fsync_arg))
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Publish a checksummed binary snapshot of a durable store's current \
          state (or, with --init, create a fresh store from a graph file); \
          --compact folds the WAL into the new snapshot.")
    term

(* ------------------------------------------------------------------ *)
(* recover *)

let recover_cmd =
  let module Repair = Rs_dynamic.Repair in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "Skip the recovery gate (from-scratch spanner equivalence and the \
             (alpha,beta) stretch check).")
  in
  let spanner_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "spanner" ] ~docv:"FILE"
          ~doc:"Write the first maintained spanner (as a graph file) to $(docv).")
  in
  let run () dir no_verify fsync output spanner_out =
    catch_store @@ fun () ->
    let store, r = Store.recover ~policy:fsync ~verify:(not no_verify) ~dir () in
    Logs.app (fun m -> m "%a" Store.pp_recovery r);
    if not no_verify then
      Logs.app (fun m ->
          m "verified: every recovered spanner = from-scratch build");
    let write () =
      catch_io @@ fun () ->
      Option.iter
        (fun path ->
          emit (Some path) (Graph_io.to_string (Store.graph store)))
        output;
      match spanner_out with
      | None -> Ok ()
      | Some path -> (
          match Store.states store with
          | [] -> Error (`Msg "store maintains no spanner state")
          | (_, st) :: _ ->
              emit (Some path)
                (Graph_io.to_string (Edge_set.to_graph (Repair.spanner st)));
              Ok ())
    in
    let res = write () in
    Store.close store;
    res
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ store_pos $ no_verify $ store_fsync_arg $ output_arg
       $ spanner_out))
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild live spanner state from a (possibly crash-damaged) durable \
          store: newest intact snapshot plus WAL replay, truncating the log at \
          the first torn or corrupt record, then gate the result against a \
          from-scratch rebuild; -o writes the recovered graph.")
    term

(* ------------------------------------------------------------------ *)
(* crashtest *)

(* Run seeded harness suites in order and print each report; the
   runner's misuse checks (Invalid_argument) are a one-line exit *)
let run_suites ~failed suites =
  catch_store @@ fun () ->
  match List.map (fun (run, pp) -> (run (), pp)) suites with
  | exception Invalid_argument m -> Error (`Msg m)
  | reports ->
      List.iter (fun (r, pp) -> Logs.app (fun m -> m "%a" pp r)) reports;
      if List.for_all (fun (r, _) -> Rs_store.Harness.ok r) reports then Ok ()
      else Error (`Msg failed)

let crashtest_cmd =
  let module Crash = Rs_store.Crash in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
  in
  let n =
    Arg.(value & opt int 40 & info [ "n" ] ~docv:"N" ~doc:"Vertex count of the base graph.")
  in
  let batches =
    Arg.(
      value & opt int 12
      & info [ "batches" ] ~docv:"B" ~doc:"Random delta batches appended before crashing.")
  in
  let sites =
    Arg.(
      value & opt int 4
      & info [ "sites" ] ~docv:"K"
          ~doc:"Random cut points per torn-write family (WAL tails, snapshot truncations).")
  in
  let run () seed n batches sites dir =
    run_suites ~failed:"crash injection uncovered recovery failures"
      [ ((fun () -> Crash.run ~seed ~n ~batches ~sites ~dir ()), Crash.pp_report) ]
  in
  let term =
    Term.(
      term_result (const run $ obs_term $ seed $ n $ batches $ sites $ store_pos))
  in
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:
         "Seeded crash-point injection: build a durable store under churn, damage \
          copies of it at every interesting byte/record/rename boundary, and \
          demand that recovery reaches the exact pre-crash state or a verified \
          prefix — never a corrupt graph. Failing case directories are kept \
          under $(b,STORE) for inspection.")
    term

(* ------------------------------------------------------------------ *)
(* serve / replica: one session *)

module Service = Rs_serve.Service
module Repl = Rs_net.Repl

let ( let* ) = Result.bind

let readers_arg =
  Arg.(value & opt int 2 & info [ "readers" ] ~docv:"N" ~doc:"Reader domains answering queries.")

(* --health-file, --script and --tcp: the same optional term in both
   commands, each documented for its command *)
let session_opt name ~docv doc = Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let parse_addr ~what = function
  | None -> Ok None
  | Some hp -> (
      match Rs_net.Tcp.parse_hostport hp with
      | Ok addr -> Ok (Some addr)
      | Error e -> Error (`Msg (what ^ " " ^ e)))

(* bind before opening any store or following any leader: a taken port
   must be a one-line exit, not a half-initialized service *)
let bind_addr ~cmd = function
  | None -> Ok None
  | Some (h, p) -> (
      match Rs_net.Tcp.listen ~host:h ~port:p with
      | Ok srv -> Ok (Some (h, p, srv))
      | Error e -> Error (`Msg (cmd ^ ": " ^ e)))

(* The running part of a serve or replica session. SIGTERM/SIGINT set
   the stop flag from [ready] on and are restored after [finish] has
   stopped the service. Lines come from the --script file, else from
   stdin, polled so a signal lands between commands; on stdin EOF a
   [resident] session keeps going until a signal or quit, any other
   session ends. The stdin/script path and the TCP front evaluate lines
   through the same Proto grammar, so replies are byte-identical on
   either transport. [tick] runs before every line and every poll. *)
let session ~cmd ~service ~ready ~on_delta ~status_suffix ~bound ~store_dir ~announce ~script
    ~resident ?(tick = ignore) ~finish () =
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let old_term = Sys.signal Sys.sigterm handler in
  let old_int = Sys.signal Sys.sigint handler in
  ready ();
  let env =
    { Rs_net.Proto.service; on_delta; stopped = (fun () -> Atomic.get stop); status_suffix }
  in
  let front =
    Option.bind bound (fun (host, port, server) ->
        match Repl.lead ~proto_env:env ~server ~service ~store_dir ~host ~port () with
        | Ok ld ->
            Logs.app (fun m -> m "%s: %s" cmd (announce host ld));
            Some ld
        | Error e ->
            Logs.err (fun m -> m "%s: tcp failed: %s" cmd e);
            None)
  in
  let quit = ref false in
  let exec line =
    match Rs_net.Proto.exec env line with
    | Rs_net.Proto.Silent -> ()
    | Rs_net.Proto.Quit -> quit := true
    | Rs_net.Proto.Reply r ->
        print_endline r;
        flush stdout
  in
  (match script with
  | Some file ->
      let rec go = function
        | [] -> ()
        | l :: rest ->
            tick ();
            if not (Atomic.get stop) then begin
              exec l;
              if not !quit then go rest
            end
      in
      go (In_channel.with_open_text file In_channel.input_lines)
  | None ->
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec lines () =
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | None -> ()
        | Some i ->
            Buffer.clear buf;
            Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
            exec (String.sub s 0 i);
            if not !quit then lines ()
      in
      let rec loop stdin_open =
        tick ();
        if not (!quit || Atomic.get stop) then
          if not stdin_open then begin
            Unix.sleepf 0.1;
            loop false
          end
          else
            match Unix.select [ Unix.stdin ] [] [] 0.1 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop true
            | [], _, _ -> loop true
            | _ ->
                let k = Unix.read Unix.stdin chunk 0 (Bytes.length chunk) in
                if k > 0 then begin
                  Buffer.add_subbytes buf chunk 0 k;
                  lines ();
                  loop true
                end
                else if resident then loop false
      in
      loop true);
  Option.iter Repl.stop_leader front;
  finish ();
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int

let serve_cmd =
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded queue capacity (deltas and queries); overflow is rejected \
             with a reason, never buffered without bound.")
  in
  let deadline_arg =
    Arg.(value & opt float 1.0
         & info [ "deadline" ] ~docv:"SECS" ~doc:"Default per-query deadline.")
  in
  let budget_arg =
    Arg.(
      value & opt float 0.5
      & info [ "repair-budget" ] ~docv:"SECS"
          ~doc:
            "Per-batch repair wall budget; repeated overruns trip the circuit \
             breaker into batched-rebuild mode.")
  in
  let trips_arg =
    Arg.(
      value & opt int 3
      & info [ "breaker-trips" ] ~docv:"N"
          ~doc:"Consecutive over-budget or fully escalated repairs that open the breaker.")
  in
  let watchdog_arg =
    Arg.(
      value & opt float 5.0
      & info [ "watchdog" ] ~docv:"SECS"
          ~doc:"Writer heartbeat staleness declaring it wedged; 0 disables the watchdog.")
  in
  let health_arg =
    session_opt "health-file" ~docv:"FILE"
      "Continuously publish a one-line liveness/readiness probe to $(docv) (written \
       by temp-file-plus-rename, so probes never read a torn line)."
  in
  let ephemeral_arg =
    Arg.(
      value & flag
      & info [ "ephemeral" ]
          ~doc:
            "Keep state in memory only: no WAL, no snapshots, watchdog failover \
             allowed. Conflicts with --wal.")
  in
  let script_arg =
    session_opt "script" ~docv:"FILE"
      "Read serve commands from $(docv) instead of stdin, then drain and exit."
  in
  let graph_opt = Arg.(value & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc:"Initial topology (omit to recover state from --wal).") in
  let tcp_arg =
    session_opt "tcp" ~docv:"HOST:PORT"
      "Also serve over TCP at $(docv) (port 0 picks one): query sessions speak the \
       same line protocol, and with --wal the endpoint additionally ships snapshots \
       and streams WAL records to replicas ($(b,rspan replica), $(b,rspan ship))."
  in
  let run () algo eps k readers queue deadline budget trips watchdog health_file
      ephemeral script tcp wal fsync graph_file =
    (* misuse exits in one line before any state is touched *)
    if readers < 1 then Error (`Msg "serve: --readers must be >= 1")
    else if queue < 1 then Error (`Msg "serve: --queue must be >= 1")
    else if deadline <= 0. then
      Error (`Msg (Printf.sprintf "serve: --deadline must be positive (got %g)" deadline))
    else if budget <= 0. then
      Error (`Msg (Printf.sprintf "serve: --repair-budget must be positive (got %g)" budget))
    else if trips < 1 then Error (`Msg "serve: --breaker-trips must be >= 1")
    else if watchdog < 0. then Error (`Msg "serve: --watchdog must be >= 0 (0 disables)")
    else if ephemeral && wal <> None then
      Error (`Msg "serve: --ephemeral conflicts with --wal (pick one state backend)")
    else
      let* tcp = parse_addr ~what:"serve: --tcp" tcp in
      let* fsync = resolve_fsync ~wal fsync in
      let* spec = repair_spec_of algo ~eps ~k in
      let* bound = bind_addr ~cmd:"serve" tcp in
      let serve backend =
        let cfg =
          { Service.default_config with
            readers; ingest_capacity = queue; request_capacity = queue;
            deadline_s = deadline; repair_budget_s = budget;
            breaker_trips = trips; watchdog_s = watchdog; health_file }
        in
        let svc = Service.start cfg backend in
        session ~cmd:"serve" ~service:svc
          ~ready:(fun () ->
            let g0, _ = Service.peek svc in
            Logs.app (fun m ->
                m "serve: ready at seq %d (n=%d m=%d, readers=%d)" (Service.view_seq svc)
                  (Graph.n g0) (Graph.m g0) readers))
          ~on_delta:(Service.offer svc)
          ~status_suffix:(fun () -> "")
          ~bound ~store_dir:wal
          ~announce:(fun h ld ->
            Printf.sprintf "tcp on %s:%d (epoch %d, %s)" h (Repl.leader_port ld)
              (Repl.leader_epoch ld)
              (if wal = None then "queries only" else "replication on"))
          ~script ~resident:false
          ~finish:(fun () ->
            let st = Service.stop svc in
            Logs.app (fun m ->
                m
                  "serve: drained and stopped at seq %d (accepted %d, rejected %d, \
                   timeouts %d, stale reads %d)"
                  st.Service.s_seq st.Service.s_accepted st.Service.s_rejected
                  st.Service.s_timeouts st.Service.s_stale_reads))
          ();
        Ok ()
      in
      match (wal, graph_file) with
      | None, None -> Error (`Msg "serve: need a GRAPH file or --wal STORE to serve from")
      | None, Some file ->
          with_graph file @@ fun g -> serve (Service.Ephemeral { specs = [ spec ]; g })
      | Some dir, Some file ->
          with_graph file @@ fun g ->
          catch_store @@ fun () ->
          serve (Service.Durable (Store.create ~policy:fsync ~dir ~specs:[ spec ] g))
      | Some dir, None ->
          catch_store @@ fun () ->
          let store, r = Store.recover ~policy:fsync ~verify:true ~dir () in
          Logs.app (fun m -> m "%a" Store.pp_recovery r);
          serve (Service.Durable store)
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ algo_arg $ eps_arg $ k_arg $ readers_arg
       $ queue_arg $ deadline_arg $ budget_arg $ trips_arg $ watchdog_arg
       $ health_arg $ ephemeral_arg $ script_arg $ tcp_arg $ wal_arg $ fsync_arg
       $ graph_opt))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Resident spanner service: a writer domain folds topology deltas through \
          incremental repair while reader domains answer route / disjoint-path / \
          advertisement queries from immutable published snapshots. Overload is \
          rejected with a reason, slow repairs trip a circuit breaker into \
          batched rebuilds (readers serve stale-flagged answers meanwhile), a \
          watchdog handles a wedged writer, SIGTERM drains and snapshots, and \
          --wal makes the whole lifecycle crash-safe. --tcp exposes the same \
          line protocol over length-prefixed CRC-framed TCP and (with --wal) \
          leads replicas: it ships its newest checksummed snapshot to joiners \
          and streams WAL records, epoch-fenced against deposed leaders.")
    term

(* ------------------------------------------------------------------ *)
(* replica *)

let replica_cmd =
  let follow_arg =
    session_opt "follow" ~docv:"HOST:PORT" "The leader to follow (required)."
  in
  let tcp_arg =
    session_opt "tcp" ~docv:"HOST:PORT"
      "Serve read-only queries over TCP at $(docv); delta lines are refused with a \
       pointer to the leader."
  in
  let retries_arg =
    Arg.(
      value & opt int 10
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Consecutive failed reconnects (capped exponential backoff with \
             jitter between them) before the follower gives up — the \
             --promote-on-disconnect trigger.")
  in
  let promote_arg =
    Arg.(
      value & flag
      & info [ "promote-on-disconnect" ]
          ~doc:
            "When the follower exhausts its retries, promote: finish applying \
             everything already accepted, bump and persist the epoch, and \
             keep serving as the freshest surviving state. The deposed \
             leader's stream is refused from then on.")
  in
  let health_arg =
    session_opt "health-file" ~docv:"FILE"
      "Continuously publish a one-line liveness probe with the replica suffix \
       (leader_seq, lag, connected, epoch) to $(docv), written by \
       temp-file-plus-rename."
  in
  let script_arg =
    session_opt "script" ~docv:"FILE"
      "Read query commands from $(docv), then stop. Without it the replica is \
       resident: it follows until SIGTERM (stdin commands are answered; EOF on stdin \
       keeps it serving)."
  in
  let run () follow tcp readers retries promote health_file script wal fsync =
    (* misuse exits in one line before any network or store I/O *)
    match (follow, wal) with
    | None, _ -> Error (`Msg "replica: --follow HOST:PORT is required (a replica needs a leader)")
    | _, None ->
        Error (`Msg "replica: --follow needs --wal DIR (the replica's own durable store)")
    | Some _, Some dir ->
        if readers < 1 then Error (`Msg "replica: --readers must be >= 1")
        else if retries < 1 then Error (`Msg "replica: --max-retries must be >= 1")
        else
          let* leader = parse_addr ~what:"replica: --follow" follow in
          let lhost, lport = Option.get leader in
          let* tcp = parse_addr ~what:"replica: --tcp" tcp in
          let* fsync = resolve_fsync ~wal fsync in
          let* bound = bind_addr ~cmd:"replica" tcp in
          catch_store @@ fun () ->
          let cfg = { (Repl.default_replica_config ()) with Repl.max_retries = retries; fsync } in
          let service_config = { Service.default_config with readers } in
          match
            Repl.follow ~config:cfg ?health_file ~service_config ~dir ~host:lhost ~port:lport ()
          with
          | Error e -> Error (`Msg ("replica: " ^ e))
          | Ok r ->
              let svc = Repl.replica_service r in
              let promoted = ref false in
              let tick () =
                if promote && (not !promoted) && Repl.gave_up r then begin
                  let e = Repl.promote r in
                  promoted := true;
                  Logs.app (fun m ->
                      m "replica: leader lost after %d retries; promoted to epoch %d at seq %d"
                        retries e (Service.view_seq svc))
                end
              in
              session ~cmd:"replica" ~service:svc
                ~ready:(fun () ->
                  Logs.app (fun m ->
                      m "replica: following %s:%d into %s (seq %d, epoch %d)" lhost lport dir
                        (Service.view_seq svc) (Repl.replica_epoch r)))
                ~on_delta:(fun _ ->
                  Error
                    (Printf.sprintf
                       "replica is read-only: offer deltas to the leader at %s:%d" lhost lport))
                ~status_suffix:(fun () -> Repl.status_suffix r)
                ~bound ~store_dir:None
                ~announce:(fun h ld -> Printf.sprintf "tcp queries on %s:%d" h (Repl.leader_port ld))
                ~script ~resident:true ~tick
                ~finish:(fun () ->
                  let st = Repl.stop_replica r in
                  Logs.app (fun m ->
                      m "replica: stopped at seq %d (applied %d, stale reads %d, epoch %d)"
                        st.Service.s_seq st.Service.s_accepted st.Service.s_stale_reads
                        (Repl.replica_epoch r)))
                ();
              Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ follow_arg $ tcp_arg $ readers_arg $ retries_arg
       $ promote_arg $ health_arg $ script_arg $ wal_arg $ fsync_arg))
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:
         "Follow a leader started with $(b,rspan serve --tcp --wal): bootstrap \
          by shipping its newest checksummed snapshot (resumable, verified \
          before install), then apply its streamed WAL records through the \
          same incremental repair, serving stale-bounded reads with an \
          advertised lag. Disconnects reconnect with capped exponential \
          backoff and resume from the replica's own durable sequence number \
          (no gaps, no double-apply); --promote-on-disconnect turns a lost \
          leader into an epoch bump that fences the deposed one out.")
    term

(* ------------------------------------------------------------------ *)
(* ship *)

let ship_cmd =
  let hp_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc:"Leader address.")
  in
  let dir_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Destination directory.")
  in
  let timeout_arg =
    Arg.(value & opt float 10.0
         & info [ "timeout" ] ~docv:"SECS" ~doc:"Per-frame transfer deadline.")
  in
  let run () hp dir timeout =
    match (hp, dir) with
    | None, _ -> Error (`Msg "ship: HOST:PORT of a leader is required")
    | _, None -> Error (`Msg "ship: a destination DIR is required")
    | Some hp, Some dir -> (
        match Rs_net.Tcp.parse_hostport hp with
        | Error e -> Error (`Msg ("ship: " ^ e))
        | Ok (host, port) -> (
            catch_store @@ fun () ->
            match Repl.ship ~timeout_s:timeout ~host ~port ~dir () with
            | Error e -> Error (`Msg ("ship: " ^ e))
            | Ok (seq, path) ->
                Printf.printf "shipped: snapshot seq %d -> %s\n" seq path;
                Ok ()))
  in
  let term = Term.(term_result (const run $ obs_term $ hp_arg $ dir_arg $ timeout_arg)) in
  Cmd.v
    (Cmd.info "ship"
       ~doc:
         "Fetch a leader's newest checksummed snapshot over TCP into DIR. An \
          interrupted transfer leaves a .part file that the next attempt \
          resumes at its byte offset; the whole file is verified against the \
          leader's CRC before the atomic rename, so a torn or corrupted ship \
          can never be mistaken for a snapshot.")
    term

(* ------------------------------------------------------------------ *)
(* chaostest *)

let chaostest_cmd =
  let module Chaos = Rs_serve.Chaos in
  let module Net_chaos = Rs_net.Net_chaos in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.") in
  let n =
    Arg.(value & opt int 40 & info [ "n" ] ~docv:"N" ~doc:"Vertex count of the base graph.")
  in
  let batches =
    Arg.(
      value & opt int 10
      & info [ "batches" ] ~docv:"B" ~doc:"Random delta batches driven through each scenario.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Run a single scenario: %s."
               (String.concat ", " (Chaos.names @ Net_chaos.names))))
  in
  let run () seed n batches scenario dir =
    let known = Chaos.names @ Net_chaos.names in
    match scenario with
    | Some s when not (List.mem s known) ->
        Error
          (`Msg
             (Printf.sprintf "chaostest: unknown scenario %s (known: %s)" s
                (String.concat ", " known)))
    | _ ->
        [ (Chaos.names, Chaos.run, Chaos.pp_report);
          (Net_chaos.names, Net_chaos.run, Net_chaos.pp_report) ]
        |> List.filter (fun (names, _, _) ->
               Option.fold ~none:true ~some:(fun s -> List.mem s names) scenario)
        |> List.map (fun (_, run, pp) ->
               ((fun () -> run ?specs:None ?only:scenario ~seed ~n ~batches ~dir ()), pp))
        |> run_suites ~failed:"chaos uncovered failures"
  in
  let term =
    Term.(term_result (const run $ obs_term $ seed $ n $ batches $ scenario $ store_pos))
  in
  Cmd.v
    (Cmd.info "chaostest"
       ~doc:
         "Chaos harness, two layers. Service: kill the writer mid-repair, tear \
          the WAL across a restart, saturate the bounded ingest queue, wedge \
          the writer under a watchdog. Network: partition leader and replica \
          mid-stream, tear a snapshot ship, overflow a slow replica's bounded \
          send buffer, restart-and-resume a replica, kill the leader and \
          promote. Every scenario must end in a state byte-identical to a \
          from-scratch build, with readers answering (stale-flagged at worst) \
          throughout.")
    term

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.App);
  let doc = "remote-spanner toolkit (Jacquet & Viennot, IPDPS 2009)" in
  let info = Cmd.info "rspan" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ gen_cmd; build_cmd; profile_cmd; top_cmd; sim_cmd; periodic_cmd; verify_cmd;
        stats_cmd; route_cmd; dot_cmd; render_cmd; churn_cmd; heal_cmd;
        snapshot_cmd; recover_cmd; crashtest_cmd; serve_cmd; replica_cmd;
        ship_cmd; chaostest_cmd ]
  in
  (* linking Rs_net ignores SIGPIPE process-wide, so a downstream
     `| head` closing stdout surfaces as Sys_error instead of a silent
     signal death; keep the conventional 141 exit rather than an
     uncaught-exception banner (cmdliner's own catch would print one,
     hence ~catch:false and a hand-rolled fallback for the rest) *)
  let broken_pipe msg = Filename.check_suffix msg "Broken pipe" in
  (* buffered output may only hit the dead pipe at an at_exit flush we
     don't control, so park fd 1 on /dev/null once EPIPE is seen — every
     later flush then succeeds and the process exits cleanly *)
  let mute_stdout () =
    try
      let fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 fd Unix.stdout;
      Unix.close fd
    with Unix.Unix_error _ | Sys_error _ -> ()
  in
  let code =
    try Cmd.eval ~catch:false group with
    | Sys_error msg when broken_pipe msg ->
        mute_stdout ();
        141
    | exn ->
        let bt = Printexc.get_backtrace () in
        Format.eprintf "rspan: internal error, uncaught exception:@.%s@.%s@."
          (Printexc.to_string exn) bt;
        Cmd.Exit.internal_error
  in
  let code =
    try
      flush stdout;
      code
    with Sys_error msg when broken_pipe msg ->
      mute_stdout ();
      if code = 0 then 141 else code
  in
  exit code
