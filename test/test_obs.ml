(* Tests for the observability layer: metric arithmetic, span nesting,
   JSON round-trips, registry reset, trace sinks, and the invariant
   that the parallel runtime's metrics sum to the sequential run's. *)
open Rs_graph
module Obs = Rs_obs.Obs
module Json = Rs_obs.Json
module Trace = Rs_obs.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* Every test starts from a clean, enabled registry and leaves the
   switch off so instrumentation stays free for the other suites. *)
let with_obs f () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* counters, gauges, histograms *)

let test_counter_arithmetic () =
  let c = Obs.counter "test/counter" in
  check_int "starts at 0" 0 (Obs.counter_value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  check_int "2 incr + add 40" 42 (Obs.counter_value c);
  check_int "find-or-register shares state" 42
    (Obs.counter_value (Obs.counter "test/counter"))

let test_disabled_is_noop () =
  let c = Obs.counter "test/disabled" in
  let h = Obs.histogram "test/disabled_h" in
  Obs.set_enabled false;
  Obs.incr c;
  Obs.add c 10;
  Obs.observe h 3.0;
  Obs.set_enabled true;
  check_int "counter untouched" 0 (Obs.counter_value c);
  check_int "histogram untouched" 0 (Obs.histogram_count h)

let test_gauge () =
  let g = Obs.gauge "test/gauge" in
  Obs.set_gauge g 3.5;
  Obs.set_gauge g 2.25;
  check_float "last write wins" 2.25 (Obs.gauge_value g)

let test_histogram_arithmetic () =
  let h = Obs.histogram "test/hist" in
  List.iter (Obs.observe h) [ 1.0; 2.0; 3.0; 100.0 ];
  check_int "count" 4 (Obs.histogram_count h);
  check_float "sum" 106.0 (Obs.histogram_sum h);
  (* min/max/buckets only surface through the JSON snapshot *)
  let j = Obs.to_json () in
  let hist =
    match Json.member "histograms" j with
    | Some hs -> Option.get (Json.member "test/hist" hs)
    | None -> Alcotest.fail "no histograms key"
  in
  check "min 1" true (Json.member "min" hist = Some (Json.Float 1.0));
  check "max 100" true (Json.member "max" hist = Some (Json.Float 100.0));
  match Json.member "buckets" hist with
  | Some (Json.List buckets) ->
      let total =
        List.fold_left
          (fun acc b ->
            match Json.member "count" b with Some (Json.Int c) -> acc + c | _ -> acc)
          0 buckets
      in
      check_int "bucket counts sum to count" 4 total
  | _ -> Alcotest.fail "no buckets"

(* ------------------------------------------------------------------ *)
(* spans *)

let test_span_nesting () =
  let r =
    Obs.with_span "a" (fun () ->
        Obs.with_span "b" (fun () -> ());
        Obs.with_span "b" (fun () -> ());
        17)
  in
  check_int "with_span returns" 17 r;
  (match Obs.span_stats "a" with
  | Some (count, total) ->
      check_int "outer once" 1 count;
      check "outer has time" true (total >= 0.0)
  | None -> Alcotest.fail "span a missing");
  (match Obs.span_stats "a/b" with
  | Some (count, _) -> check_int "nested under joined path" 2 count
  | None -> Alcotest.fail "span a/b missing");
  check "no bare b" true (Obs.span_stats "b" = None)

let test_span_closes_on_exception () =
  (try Obs.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  (match Obs.span_stats "boom" with
  | Some (count, _) -> check_int "recorded despite raise" 1 count
  | None -> Alcotest.fail "span missing");
  (* the stack unwound: a sibling span is not nested under "boom" *)
  Obs.with_span "after" (fun () -> ());
  check "sibling at top level" true (Obs.span_stats "after" <> None)

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let c = Obs.counter "rt/counter" in
  Obs.add c 7;
  Obs.set_gauge (Obs.gauge "rt/gauge") 1.5;
  Obs.observe (Obs.histogram "rt/hist") 42.0;
  Obs.with_span "rt" (fun () -> ());
  let j = Obs.to_json () in
  (match Json.parse (Json.to_string j) with
  | Ok j' -> check "compact round-trip" true (Json.equal j j')
  | Error e -> Alcotest.fail ("compact parse: " ^ e));
  match Json.parse (Json.to_string ~pretty:true j) with
  | Ok j' -> check "pretty round-trip" true (Json.equal j j')
  | Error e -> Alcotest.fail ("pretty parse: " ^ e)

let test_json_parser_strictness () =
  check "trailing garbage" true (Result.is_error (Json.parse "1 2"));
  check "unterminated string" true (Result.is_error (Json.parse "\"ab"));
  check "bare word" true (Result.is_error (Json.parse "nulx"));
  (match Json.parse "{\"a\": [1, -2.5e1, true, null, \"\\u0041\"]}" with
  | Ok j ->
      check "escapes and numbers" true
        (Json.equal j
           (Json.Obj
              [ ("a",
                 Json.List
                   [ Json.Int 1; Json.Float (-25.0); Json.Bool true; Json.Null;
                     Json.String "A" ]) ]))
  | Error e -> Alcotest.fail e);
  check "nan prints as null" true (Json.to_string (Json.Float Float.nan) = "null")

(* ------------------------------------------------------------------ *)
(* reset *)

let test_reset_keeps_handles () =
  let c = Obs.counter "reset/c" in
  let h = Obs.histogram "reset/h" in
  Obs.add c 5;
  Obs.observe h 1.0;
  Obs.with_span "reset_span" (fun () -> ());
  Obs.reset ();
  check_int "counter zeroed" 0 (Obs.counter_value c);
  check_int "histogram zeroed" 0 (Obs.histogram_count h);
  check "span aggregates dropped" true (Obs.span_stats "reset_span" = None);
  Obs.incr c;
  check_int "old handle still live" 1 (Obs.counter_value c);
  check_int "re-registration sees the same cell" 1
    (Obs.counter_value (Obs.counter "reset/c"))

(* ------------------------------------------------------------------ *)
(* trace sinks *)

let test_trace_buffer () =
  let buf = Buffer.create 256 in
  let sink = Trace.to_buffer buf in
  Trace.emit sink [ ("ev", Json.String "x"); ("n", Json.Int 1) ];
  Trace.emit sink [ ("ev", Json.String "y") ];
  check_int "two events" 2 (Trace.events sink);
  Trace.close sink;
  Trace.close sink (* idempotent *);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" 2 (List.length lines);
  List.iter
    (fun l -> check "line parses" true (Result.is_ok (Json.parse l)))
    lines;
  check "emit after close raises" true
    (match Trace.emit sink [ ("ev", Json.String "z") ] with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* parallel metrics == sequential metrics *)

let snapshot () =
  List.map
    (fun name -> (name, Obs.counter_value (Obs.counter name)))
    [ "core/trees_built"; "bfs/runs"; "bfs/expansions" ]

let prop_parallel_metrics_match =
  QCheck.Test.make ~count:15 ~name:"sharded build metrics sum to sequential"
    QCheck.(pair (int_range 65 120) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Gen.erdos_renyi (Rand.create seed) n 0.08 in
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
      Obs.reset ();
      let h_seq = Rs_core.Remote_spanner.exact_distance g in
      let seq = snapshot () in
      Obs.reset ();
      let h_par = Rs_core.Sharded.build ~domains:4 g (Rs_core.Sharded.Gdy_k { k = 1 }) in
      let par = snapshot () in
      Edge_set.cardinal h_seq = Edge_set.cardinal h_par && seq = par)

(* ------------------------------------------------------------------ *)
(* quantiles *)

let test_quantile_accuracy () =
  let h = Obs.histogram "test/quant" in
  for v = 1 to 1000 do
    Obs.observe h (float_of_int v)
  done;
  (* log-bucketed sketch: <= 2% relative error, clamped to [min, max] *)
  let within q expect =
    let got = Obs.quantile h q in
    let err = Float.abs (got -. expect) /. expect in
    if err > 0.02 then
      Alcotest.failf "p%.0f = %g, want %g +- 2%% (err %.3f%%)" (100. *. q) got
        expect (100. *. err)
  in
  within 0.5 500.0;
  within 0.9 900.0;
  within 0.99 990.0;
  check_float "p0 clamps to min" 1.0 (Obs.quantile h 0.0);
  check_float "p100 clamps to max" 1000.0 (Obs.quantile h 1.0);
  check_float "histogram_min" 1.0 (Obs.histogram_min h);
  check_float "histogram_max" 1000.0 (Obs.histogram_max h)

let test_quantile_zero_and_negative () =
  let h = Obs.histogram "test/quant_zero" in
  List.iter (Obs.observe h) [ 0.0; 0.0; 0.0; 5.0 ];
  (* three of four observations land in the zero bucket *)
  check_float "p50 in the zero bucket" 0.0 (Obs.quantile h 0.5);
  check_float "p100 reaches max" 5.0 (Obs.quantile h 1.0)

(* ------------------------------------------------------------------ *)
(* domain-sharded exactness *)

let test_multidomain_counters () =
  let c = Obs.counter "test/md_counter" in
  let h = Obs.histogram "test/md_hist" in
  let n_domains = 4 and per_domain = 25_000 in
  let domains =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.incr c;
              Obs.observe h 2.0
            done))
  in
  List.iter Domain.join domains;
  (* plain per-domain writes, exact after join: no increment lost *)
  check_int "counter total exact" (n_domains * per_domain) (Obs.counter_value c);
  check_int "histogram count exact" (n_domains * per_domain)
    (Obs.histogram_count h);
  check_float "histogram sum exact"
    (2.0 *. float_of_int (n_domains * per_domain))
    (Obs.histogram_sum h)

let test_multidomain_trace_interleaving () =
  let buf = Buffer.create 4096 in
  let sink = Trace.to_buffer buf in
  let n_domains = 4 and per_domain = 500 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Trace.emit sink
                [ ("ev", Json.String "stress"); ("domain", Json.Int d);
                  ("i", Json.Int i) ]
            done))
  in
  List.iter Domain.join domains;
  Trace.close sink;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check_int "no line lost or torn" (n_domains * per_domain) (List.length lines);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "line is not an object: %s" l
      | Error e -> Alcotest.failf "line is not standalone JSON (%s): %s" e l)
    lines

(* ------------------------------------------------------------------ *)
(* span stack discipline and the profile tree *)

let test_span_exception_restores_stack () =
  (* an exception inside a nested span must pop exactly the spans it
     pushed: the sibling opened afterwards is a child of "a", not of
     the span that blew up *)
  Obs.with_span "a" (fun () ->
      (try
         Obs.with_span "b" (fun () -> failwith "boom")
       with Failure _ -> ());
      Obs.with_span "c" (fun () -> ()));
  let has n = Obs.span_stats n <> None in
  check "a recorded" true (has "a");
  check "a/b recorded" true (has "a/b");
  check "c is a sibling of b under a" true (has "a/c");
  check "c did not nest under the failed b" false (has "a/b/c")

let test_profile_tree () =
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> ignore (Sys.opaque_identity (ref 0)));
      Obs.with_span "inner" (fun () -> ()));
  let forest = Obs.profile () in
  let outer =
    match List.find_opt (fun n -> n.Obs.p_name = "outer") forest with
    | Some n -> n
    | None -> Alcotest.fail "no 'outer' root in profile forest"
  in
  check_int "outer ran once" 1 outer.Obs.p_count;
  let inner =
    match outer.Obs.p_children with
    | [ n ] -> n
    | l -> Alcotest.failf "expected one child of outer, got %d" (List.length l)
  in
  check_int "inner ran twice" 2 inner.Obs.p_count;
  check "child total bounded by parent total" true
    (inner.Obs.p_total_s <= outer.Obs.p_total_s +. 1e-9);
  check "self = total - children" true
    (Float.abs (outer.Obs.p_self_s -. (outer.Obs.p_total_s -. inner.Obs.p_total_s))
     < 1e-9);
  (* folded export: every line is "frame(;frame)* <int>" *)
  let folded = Obs.folded () in
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  check "folded is non-empty" true (lines <> []);
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "folded line has no sample count: %s" l
      | Some i ->
          let stack = String.sub l 0 i in
          let count = String.sub l (i + 1) (String.length l - i - 1) in
          check "stack non-empty" true (stack <> "");
          (match int_of_string_opt count with
          | Some n -> check "count non-negative" true (n >= 0)
          | None -> Alcotest.failf "folded count not an int: %s" l))
    lines;
  check "folded contains the nested stack" true
    (List.exists
       (fun l -> String.length l >= 11 && String.sub l 0 11 = "outer;inner")
       lines)

(* ------------------------------------------------------------------ *)
(* snapshots and JSONL deltas *)

let test_snapshot_delta () =
  let c = Obs.counter "test/delta_c" in
  let c2 = Obs.counter "test/delta_quiet" in
  let h = Obs.histogram "test/delta_h" in
  Obs.incr c2;
  let s0 = Obs.snapshot () in
  Obs.add c 5;
  Obs.observe h 3.0;
  Obs.observe h 4.0;
  let s1 = Obs.snapshot () in
  let d = Obs.delta_json ~prev:s0 s1 in
  let counters = Option.get (Json.member "counters" d) in
  (match Json.member "test/delta_c" counters with
  | Some (Json.Int 5) -> ()
  | j -> Alcotest.failf "delta_c delta wrong: %s"
           (match j with Some j -> Json.to_string j | None -> "absent"));
  check "unchanged counter omitted from delta" true
    (Json.member "test/delta_quiet" counters = None);
  let hists = Option.get (Json.member "histograms" d) in
  (match Json.member "test/delta_h" hists with
  | Some hd ->
      check "hist delta count" true (Json.member "count" hd = Some (Json.Int 2))
  | None -> Alcotest.fail "histogram delta missing")

(* ------------------------------------------------------------------ *)
(* exact float round-trip through the JSON printer *)

let prop_json_float_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"JSON float printing round-trips exactly"
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      let s = Json.to_string (Json.Float f) in
      match Json.parse s with
      | Ok (Json.Float f') -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
      | Ok (Json.Int i) ->
          (* integral floats print without a dot and re-parse as Int;
             the value must still be bit-exact *)
          Int64.equal (Int64.bits_of_float f)
            (Int64.bits_of_float (float_of_int i))
      | Ok _ | Error _ -> false)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter arithmetic" `Quick (with_obs test_counter_arithmetic);
          Alcotest.test_case "disabled is a no-op" `Quick (with_obs test_disabled_is_noop);
          Alcotest.test_case "gauge last-write-wins" `Quick (with_obs test_gauge);
          Alcotest.test_case "histogram arithmetic" `Quick (with_obs test_histogram_arithmetic);
          Alcotest.test_case "quantile accuracy <=2%" `Quick (with_obs test_quantile_accuracy);
          Alcotest.test_case "quantile zero bucket" `Quick (with_obs test_quantile_zero_and_negative);
        ] );
      ( "sharding",
        [
          Alcotest.test_case "multi-domain counters exact" `Quick (with_obs test_multidomain_counters);
          Alcotest.test_case "multi-domain trace lines standalone" `Quick
            (with_obs test_multidomain_trace_interleaving);
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting joins paths" `Quick (with_obs test_span_nesting);
          Alcotest.test_case "closes on exception" `Quick (with_obs test_span_closes_on_exception);
          Alcotest.test_case "exception restores span stack" `Quick
            (with_obs test_span_exception_restores_stack);
          Alcotest.test_case "profile tree and folded export" `Quick (with_obs test_profile_tree);
        ] );
      ( "json",
        [
          Alcotest.test_case "registry round-trip" `Quick (with_obs test_json_roundtrip);
          Alcotest.test_case "parser strictness" `Quick (with_obs test_json_parser_strictness);
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "reset keeps handles" `Quick (with_obs test_reset_keeps_handles);
          Alcotest.test_case "snapshot deltas" `Quick (with_obs test_snapshot_delta);
        ] );
      ( "trace",
        [ Alcotest.test_case "buffer sink" `Quick (with_obs test_trace_buffer) ] );
      ( "parallel",
        [ QCheck_alcotest.to_alcotest prop_parallel_metrics_match ] );
    ]
