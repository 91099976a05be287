let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let now = Unix.gettimeofday

let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* ------------------------------------------------------------------ *)
(* log-bucket geometry (DDSketch-style)

   Positive observations land in bucket [i] iff gamma^(i-1) < v <=
   gamma^i. A quantile is answered as the bucket's geometric midpoint
   2*gamma^i / (gamma+1), whose relative error is bounded by
   (gamma-1)/(gamma+1) ~= 1.96% < 2%. The index range covers
   [~1.5e-7, ~5.2e8]; values outside clamp into the end buckets
   (min/max stay exact, so clamping only ever costs quantile accuracy
   in the extreme tails). Zero and negative observations get their own
   bucket rendered with le = 0. *)

let gamma = 1.04
let inv_log_gamma = 1.0 /. Float.log gamma
let bucket_lo = -400
let bucket_hi = 511
let n_buckets = bucket_hi - bucket_lo + 1

let bucket_index v =
  (* v > 0 *)
  let i = int_of_float (Float.ceil (Float.log v *. inv_log_gamma)) in
  if i < bucket_lo then bucket_lo else if i > bucket_hi then bucket_hi else i

let bucket_le i = Float.pow gamma (float_of_int i)
let bucket_estimate i = 2.0 *. bucket_le i /. (1.0 +. gamma)

(* ------------------------------------------------------------------ *)
(* domain-sharded cells

   Every counter and histogram keeps one cell per domain that ever
   touched it; the owning domain mutates its cell with plain unshared
   writes (no CAS, no mutex, no cross-core cache-line traffic), and
   readers merge all cells lazily under the registry mutex. Racy reads
   of a live domain's cell may be slightly stale but cannot tear
   (word-sized fields); after the writing domains are joined, merged
   totals are exact. Cells live in a per-domain slab reached through
   one [Domain.DLS] lookup; slabs are recycled through a free pool
   when their domain exits, so the cell population is bounded by the
   peak number of concurrent domains, not by the number of domains
   ever spawned. *)

type ccell = { mutable cc_v : int }

type hcell = {
  mutable hc_count : int;
  mutable hc_zero : int; (* observations <= 0 *)
  hc_f : float array; (* sum; min; max — float array keeps them unboxed *)
  hc_buckets : int array; (* n_buckets *)
}

(* profile call tree, one per domain; see "spans" below *)
type pnode = {
  pf_name : string;
  mutable pf_count : int;
  pf_f : float array; (* total_s; max_s; minor_words; major_words *)
  mutable pf_compactions : int;
  pf_children : (string, pnode) Hashtbl.t;
}

let new_pnode name =
  {
    pf_name = name;
    pf_count = 0;
    pf_f = [| 0.0; 0.0; 0.0; 0.0 |];
    pf_compactions = 0;
    pf_children = Hashtbl.create 4;
  }

module Tmap = Map.Make (Int)

type slab = {
  mutable s_ccells : ccell array; (* by counter id; dummy_ccell = absent *)
  mutable s_hcells : hcell array; (* by histogram id *)
  s_proot : pnode; (* this domain's profile forest *)
  s_pstacks : pnode list Tmap.t Atomic.t;
      (* open spans by thread id, innermost first; empty stacks unbound *)
}

let dummy_ccell = { cc_v = 0 }
let dummy_hcell = { hc_count = 0; hc_zero = 0; hc_f = [||]; hc_buckets = [||] }

(* all slabs ever created (active and pooled), for profile merge and
   reset; and the free pool of slabs whose domain has exited *)
let all_slabs : slab list ref = ref []
let slab_pool : slab list ref = ref []

let slab_key : slab Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        locked (fun () ->
            match !slab_pool with
            | s :: rest ->
                slab_pool := rest;
                Atomic.set s.s_pstacks Tmap.empty;
                s
            | [] ->
                let s =
                  {
                    s_ccells = [||];
                    s_hcells = [||];
                    s_proot = new_pnode "";
                    s_pstacks = Atomic.make Tmap.empty;
                  }
                in
                all_slabs := s :: !all_slabs;
                s)
      in
      Domain.at_exit (fun () -> locked (fun () -> slab_pool := s :: !slab_pool));
      s)

let slab () = Domain.DLS.get slab_key

(* ------------------------------------------------------------------ *)
(* counters *)

type counter = { c_id : int; c_name : string; mutable c_cells : ccell list }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let next_counter_id = ref 0

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_id = !next_counter_id; c_name = name; c_cells = [] } in
          incr next_counter_id;
          Hashtbl.replace counters name c;
          c)

let ccell_of c =
  let s = slab () in
  let id = c.c_id in
  if id < Array.length s.s_ccells && s.s_ccells.(id) != dummy_ccell then
    s.s_ccells.(id)
  else begin
    if id >= Array.length s.s_ccells then begin
      let cap = max 8 (max (id + 1) (2 * Array.length s.s_ccells)) in
      let a = Array.make cap dummy_ccell in
      Array.blit s.s_ccells 0 a 0 (Array.length s.s_ccells);
      s.s_ccells <- a
    end;
    let cell = { cc_v = 0 } in
    s.s_ccells.(id) <- cell;
    locked (fun () -> c.c_cells <- cell :: c.c_cells);
    cell
  end

let incr c =
  if enabled () then begin
    let cell = ccell_of c in
    cell.cc_v <- cell.cc_v + 1
  end

let add c n =
  if enabled () then begin
    let cell = ccell_of c in
    cell.cc_v <- cell.cc_v + n
  end

let counter_value c =
  locked (fun () -> List.fold_left (fun acc cell -> acc + cell.cc_v) 0 c.c_cells)

(* ------------------------------------------------------------------ *)
(* gauges — last-write-wins and never hot; a single atomic suffices *)

type gauge = { g_name : string; g_value : float Atomic.t }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_value = Atomic.make 0.0 } in
          Hashtbl.replace gauges name g;
          g)

let set_gauge g v = if enabled () then Atomic.set g.g_value v
let gauge_value g = Atomic.get g.g_value

(* ------------------------------------------------------------------ *)
(* histograms *)

type histogram = { h_id : int; h_name : string; mutable h_cells : hcell list }

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let next_histogram_id = ref 0

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h = { h_id = !next_histogram_id; h_name = name; h_cells = [] } in
          next_histogram_id := !next_histogram_id + 1;
          Hashtbl.replace histograms name h;
          h)

let hcell_of h =
  let s = slab () in
  let id = h.h_id in
  if id < Array.length s.s_hcells && s.s_hcells.(id) != dummy_hcell then
    s.s_hcells.(id)
  else begin
    if id >= Array.length s.s_hcells then begin
      let cap = max 4 (max (id + 1) (2 * Array.length s.s_hcells)) in
      let a = Array.make cap dummy_hcell in
      Array.blit s.s_hcells 0 a 0 (Array.length s.s_hcells);
      s.s_hcells <- a
    end;
    let cell =
      {
        hc_count = 0;
        hc_zero = 0;
        hc_f = [| 0.0; infinity; neg_infinity |];
        hc_buckets = Array.make n_buckets 0;
      }
    in
    s.s_hcells.(id) <- cell;
    locked (fun () -> h.h_cells <- cell :: h.h_cells);
    cell
  end

let observe h v =
  if enabled () then begin
    let cell = hcell_of h in
    cell.hc_count <- cell.hc_count + 1;
    let f = cell.hc_f in
    f.(0) <- f.(0) +. v;
    if v < f.(1) then f.(1) <- v;
    if v > f.(2) then f.(2) <- v;
    if v > 0.0 then begin
      let i = bucket_index v - bucket_lo in
      cell.hc_buckets.(i) <- cell.hc_buckets.(i) + 1
    end
    else cell.hc_zero <- cell.hc_zero + 1
  end

let time_ms h f =
  if enabled () then begin
    let t0 = now () in
    match f () with
    | v ->
        observe h ((now () -. t0) *. 1000.0);
        v
    | exception e ->
        observe h ((now () -. t0) *. 1000.0);
        raise e
  end
  else f ()

(* merged snapshot of one histogram; [hs_buckets] is by bucket index *)
type hsnap = {
  hs_count : int;
  hs_zero : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : int array;
}

let merge_histogram_locked h =
  let buckets = Array.make n_buckets 0 in
  let count = ref 0 and zero = ref 0 in
  let sum = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
  List.iter
    (fun cell ->
      count := !count + cell.hc_count;
      zero := !zero + cell.hc_zero;
      sum := !sum +. cell.hc_f.(0);
      if cell.hc_f.(1) < !mn then mn := cell.hc_f.(1);
      if cell.hc_f.(2) > !mx then mx := cell.hc_f.(2);
      for i = 0 to n_buckets - 1 do
        buckets.(i) <- buckets.(i) + cell.hc_buckets.(i)
      done)
    h.h_cells;
  {
    hs_count = !count;
    hs_zero = !zero;
    hs_sum = !sum;
    hs_min = !mn;
    hs_max = !mx;
    hs_buckets = buckets;
  }

let merge_histogram h = locked (fun () -> merge_histogram_locked h)

let histogram_count h = (merge_histogram h).hs_count
let histogram_sum h = (merge_histogram h).hs_sum

let histogram_min h =
  let s = merge_histogram h in
  if s.hs_count = 0 then 0.0 else s.hs_min

let histogram_max h =
  let s = merge_histogram h in
  if s.hs_count = 0 then 0.0 else s.hs_max

let quantile_of_snap s q =
  if s.hs_count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank =
      max 1 (min s.hs_count (int_of_float (Float.ceil (q *. float_of_int s.hs_count))))
    in
    let est =
      if rank <= s.hs_zero then 0.0
      else begin
        let cum = ref s.hs_zero in
        let i = ref 0 in
        while !cum < rank && !i < n_buckets do
          cum := !cum + s.hs_buckets.(!i);
          if !cum < rank then i := !i + 1
        done;
        bucket_estimate (min (n_buckets - 1) !i + bucket_lo)
      end
    in
    (* exact bounds beat bucket estimates at the extremes *)
    Float.max s.hs_min (Float.min s.hs_max est)
  end

let quantile h q = quantile_of_snap (merge_histogram h) q

(* ------------------------------------------------------------------ *)
(* spans: a continuous profile as a per-domain call tree

   [with_span] pushes onto a thread-local stack of tree nodes, kept in
   the domain's slab, so hot nesting is lock-free; each node
   accumulates (count, total, max) plus GC deltas (minor/major words,
   compactions) for top-level spans, where the sampling cost amortizes
   over the whole scope. Readers merge every domain's forest by name.
   The pop restores the exact pre-push stack, so a raise anywhere
   inside — even one that skipped an inner span's own cleanup — cannot
   leak stack entries.

   Systhreads of one domain share its slab and may switch at any
   allocation. So each thread's stack is its own binding, swapped in by
   compare-and-set (a switch mid-update cannot drop another thread's
   binding), and a new tree node is inserted under the registry lock
   (two threads may open the same child at once). *)

let set_pstack s tid stack =
  let rec go () =
    let m = Atomic.get s.s_pstacks in
    let m' = if stack = [] then Tmap.remove tid m else Tmap.add tid stack m in
    if not (Atomic.compare_and_set s.s_pstacks m m') then go ()
  in
  go ()

let child parent name =
  match Hashtbl.find_opt parent.pf_children name with
  | Some n -> n
  | None ->
      locked (fun () ->
          match Hashtbl.find_opt parent.pf_children name with
          | Some n -> n
          | None ->
              let n = new_pnode name in
              Hashtbl.replace parent.pf_children name n;
              n)

let with_span name f =
  if not (enabled ()) then f ()
  else begin
    let s = slab () in
    let tid = Thread.id (Thread.self ()) in
    let saved = Option.value (Tmap.find_opt tid (Atomic.get s.s_pstacks)) ~default:[] in
    let node = child (match saved with [] -> s.s_proot | p :: _ -> p) name in
    let top_level = saved = [] in
    set_pstack s tid (node :: saved);
    let gc0 = if top_level then Some (Gc.quick_stat ()) else None in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = now () -. t0 in
        set_pstack s tid saved;
        node.pf_count <- node.pf_count + 1;
        node.pf_f.(0) <- node.pf_f.(0) +. dt;
        if dt > node.pf_f.(1) then node.pf_f.(1) <- dt;
        match gc0 with
        | None -> ()
        | Some g0 ->
            let g1 = Gc.quick_stat () in
            node.pf_f.(2) <- node.pf_f.(2) +. (g1.minor_words -. g0.minor_words);
            node.pf_f.(3) <- node.pf_f.(3) +. (g1.major_words -. g0.major_words);
            node.pf_compactions <-
              node.pf_compactions + (g1.compactions - g0.compactions))
      f
  end

(* merged, exported tree *)
type profile_node = {
  p_name : string;
  p_count : int;
  p_total_s : float;
  p_self_s : float;
  p_max_s : float;
  p_minor_words : float;
  p_major_words : float;
  p_compactions : int;
  p_children : profile_node list;
}

let profile_forest_locked () =
  (* collect the per-domain forests and merge recursively by name *)
  let rec merge (tbls : (string, pnode) Hashtbl.t list) =
    let names = Hashtbl.create 8 in
    List.iter (fun tbl -> Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) tbl) tbls;
    Hashtbl.fold (fun name () acc -> name :: acc) names []
    |> List.sort compare
    |> List.map (fun name ->
           let nodes = List.filter_map (fun tbl -> Hashtbl.find_opt tbl name) tbls in
           let count = List.fold_left (fun a n -> a + n.pf_count) 0 nodes in
           let total = List.fold_left (fun a n -> a +. n.pf_f.(0)) 0.0 nodes in
           let mx = List.fold_left (fun a n -> Float.max a n.pf_f.(1)) 0.0 nodes in
           let minor = List.fold_left (fun a n -> a +. n.pf_f.(2)) 0.0 nodes in
           let major = List.fold_left (fun a n -> a +. n.pf_f.(3)) 0.0 nodes in
           let comp = List.fold_left (fun a n -> a + n.pf_compactions) 0 nodes in
           let children = merge (List.map (fun n -> n.pf_children) nodes) in
           let child_total =
             List.fold_left (fun a c -> a +. c.p_total_s) 0.0 children
           in
           {
             p_name = name;
             p_count = count;
             p_total_s = total;
             p_self_s = Float.max 0.0 (total -. child_total);
             p_max_s = mx;
             p_minor_words = minor;
             p_major_words = major;
             p_compactions = comp;
             p_children = children;
           })
  in
  merge (List.map (fun s -> s.s_proot.pf_children) !all_slabs)

let profile () = locked profile_forest_locked

(* flat span view, for backward compatibility: nesting joined by "/" *)
let span_bindings () =
  let rec walk prefix nodes acc =
    List.fold_left
      (fun acc node ->
        let path = if prefix = "" then node.p_name else prefix ^ "/" ^ node.p_name in
        let acc = (path, node) :: acc in
        walk path node.p_children acc)
      acc nodes
  in
  walk "" (profile ()) [] |> List.sort (fun (a, _) (b, _) -> compare a b)

let span_stats path =
  List.assoc_opt path (span_bindings ())
  |> Option.map (fun n -> (n.p_count, n.p_total_s))

let folded () =
  let buf = Buffer.create 1024 in
  let rec walk prefix nodes =
    List.iter
      (fun node ->
        let stack = if prefix = "" then node.p_name else prefix ^ ";" ^ node.p_name in
        let us = max 0 (int_of_float (node.p_self_s *. 1e6)) in
        Buffer.add_string buf (Printf.sprintf "%s %d\n" stack us);
        walk stack node.p_children)
      nodes
  in
  walk "" (profile ());
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* registry *)

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ c -> List.iter (fun cell -> cell.cc_v <- 0) c.c_cells)
        counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_value 0.0) gauges;
      Hashtbl.iter
        (fun _ h ->
          List.iter
            (fun cell ->
              cell.hc_count <- 0;
              cell.hc_zero <- 0;
              cell.hc_f.(0) <- 0.0;
              cell.hc_f.(1) <- infinity;
              cell.hc_f.(2) <- neg_infinity;
              Array.fill cell.hc_buckets 0 n_buckets 0)
            h.h_cells)
        histograms;
      List.iter (fun s -> Hashtbl.reset s.s_proot.pf_children) !all_slabs)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_json snap =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if snap.hs_buckets.(i) > 0 then
      buckets :=
        Json.Obj
          [ ("le", Json.Float (bucket_le (i + bucket_lo)));
            ("count", Json.Int snap.hs_buckets.(i)) ]
        :: !buckets
  done;
  let buckets =
    if snap.hs_zero > 0 then
      Json.Obj [ ("le", Json.Float 0.0); ("count", Json.Int snap.hs_zero) ]
      :: !buckets
    else !buckets
  in
  Json.Obj
    [
      ("count", Json.Int snap.hs_count);
      ("sum", Json.Float snap.hs_sum);
      ("min", Json.Float (if snap.hs_count = 0 then 0.0 else snap.hs_min));
      ("max", Json.Float (if snap.hs_count = 0 then 0.0 else snap.hs_max));
      ("p50", Json.Float (quantile_of_snap snap 0.5));
      ("p90", Json.Float (quantile_of_snap snap 0.9));
      ("p99", Json.Float (quantile_of_snap snap 0.99));
      ("buckets", Json.List buckets);
    ]

let rec profile_node_json n =
  Json.Obj
    [
      ("name", Json.String n.p_name);
      ("count", Json.Int n.p_count);
      ("total_s", Json.Float n.p_total_s);
      ("self_s", Json.Float n.p_self_s);
      ("max_s", Json.Float n.p_max_s);
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Float n.p_minor_words);
            ("major_words", Json.Float n.p_major_words);
            ("compactions", Json.Int n.p_compactions);
          ] );
      ("children", Json.List (List.map profile_node_json n.p_children));
    ]

let to_json () =
  let spans = span_bindings () in
  let prof = profile () in
  locked (fun () ->
      let counters_j =
        sorted_bindings counters
        |> List.map (fun (name, c) ->
               ( name,
                 Json.Int
                   (List.fold_left (fun acc cell -> acc + cell.cc_v) 0 c.c_cells) ))
      in
      let gauges_j =
        sorted_bindings gauges
        |> List.map (fun (name, g) -> (name, Json.Float (Atomic.get g.g_value)))
      in
      let histograms_j =
        sorted_bindings histograms
        |> List.map (fun (name, h) -> (name, histogram_json (merge_histogram_locked h)))
      in
      let spans_j =
        List.map
          (fun (path, n) ->
            ( path,
              Json.Obj
                [
                  ("count", Json.Int n.p_count);
                  ("total_s", Json.Float n.p_total_s);
                  ("max_s", Json.Float n.p_max_s);
                ] ))
          spans
      in
      Json.Obj
        [
          ("version", Json.Int 2);
          ("counters", Json.Obj counters_j);
          ("gauges", Json.Obj gauges_j);
          ("histograms", Json.Obj histograms_j);
          ("spans", Json.Obj spans_j);
          ("profile", Json.List (List.map profile_node_json prof));
        ])

let to_table () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let prof = profile () in
  let counters_b = locked (fun () -> sorted_bindings counters) in
  let gauges_b = locked (fun () -> sorted_bindings gauges) in
  let histograms_b = locked (fun () -> sorted_bindings histograms) in
  line "%-44s %14s" "counter" "value";
  List.iter
    (fun (name, c) -> line "%-44s %14d" name (counter_value c))
    counters_b;
  if gauges_b <> [] then begin
    line "";
    line "%-44s %14s" "gauge" "value";
    List.iter
      (fun (name, g) -> line "%-44s %14.2f" name (Atomic.get g.g_value))
      gauges_b
  end;
  if histograms_b <> [] then begin
    line "";
    line "%-44s %8s %10s %10s %10s %10s" "histogram" "count" "mean" "p50" "p99" "max";
    List.iter
      (fun (name, h) ->
        let s = merge_histogram h in
        let mean = if s.hs_count = 0 then 0.0 else s.hs_sum /. float_of_int s.hs_count in
        line "%-44s %8d %10.3f %10.3f %10.3f %10.3f" name s.hs_count mean
          (quantile_of_snap s 0.5) (quantile_of_snap s 0.99)
          (if s.hs_count = 0 then 0.0 else s.hs_max))
      histograms_b
  end;
  if prof <> [] then begin
    line "";
    line "%-44s %8s %12s %12s %14s" "profile" "count" "total" "self" "minor words";
    let rec walk depth nodes =
      List.iter
        (fun n ->
          let label = String.make (2 * depth) ' ' ^ n.p_name in
          line "%-44s %8d %10.3fms %10.3fms %14.0f" label n.p_count
            (1e3 *. n.p_total_s) (1e3 *. n.p_self_s) n.p_minor_words;
          walk (depth + 1) n.p_children)
        nodes
    in
    walk 0 prof
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* periodic snapshots: registry deltas for offline rate computation *)

type snapshot = {
  snap_ts : float;
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_hists : (string * (int * float)) list; (* count, sum *)
}

let snapshot () =
  locked (fun () ->
      {
        snap_ts = now ();
        snap_counters =
          sorted_bindings counters
          |> List.map (fun (name, c) ->
                 (name, List.fold_left (fun acc cell -> acc + cell.cc_v) 0 c.c_cells));
        snap_gauges =
          sorted_bindings gauges
          |> List.map (fun (name, g) -> (name, Atomic.get g.g_value));
        snap_hists =
          sorted_bindings histograms
          |> List.map (fun (name, h) ->
                 let s = merge_histogram_locked h in
                 (name, (s.hs_count, s.hs_sum)));
      })

let delta_json ?prev next =
  let prev_counter name =
    match prev with
    | None -> 0
    | Some p -> Option.value ~default:0 (List.assoc_opt name p.snap_counters)
  in
  let prev_gauge name =
    Option.bind prev (fun p -> List.assoc_opt name p.snap_gauges)
  in
  let prev_hist name =
    match prev with
    | None -> (0, 0.0)
    | Some p -> Option.value ~default:(0, 0.0) (List.assoc_opt name p.snap_hists)
  in
  let counters_j =
    List.filter_map
      (fun (name, v) ->
        let d = v - prev_counter name in
        if d = 0 then None else Some (name, Json.Int d))
      next.snap_counters
  in
  let gauges_j =
    List.filter_map
      (fun (name, v) ->
        match prev_gauge name with
        | Some v' when v' = v -> None
        | _ -> Some (name, Json.Float v))
      next.snap_gauges
  in
  let hists_j =
    List.filter_map
      (fun (name, (count, sum)) ->
        let pc, ps = prev_hist name in
        if count = pc && sum = ps then None
        else
          Some
            ( name,
              Json.Obj
                [ ("count", Json.Int (count - pc)); ("sum", Json.Float (sum -. ps)) ]
            ))
      next.snap_hists
  in
  Json.Obj
    [
      ("ts", Json.Float next.snap_ts);
      ( "dt",
        Json.Float
          (match prev with None -> 0.0 | Some p -> next.snap_ts -. p.snap_ts) );
      ("counters", Json.Obj counters_j);
      ("gauges", Json.Obj gauges_j);
      ("histograms", Json.Obj hists_j);
    ]
