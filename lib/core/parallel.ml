open Rs_graph
module Obs = Rs_obs.Obs

let is_remote_spanner ?domains g h ~alpha ~beta =
  Obs.with_span "parallel/is_remote_spanner" @@ fun () ->
  let domains = match domains with Some d -> max 1 d | None -> Sharded.default_domains () in
  let n = Graph.n g in
  let h_adj = Edge_set.to_adjacency h in
  let ok = Atomic.make true in
  let check_source sg sh u =
    Bfs.Scratch.run sg g u;
    Bfs.Scratch.run_augmented sh g h_adj u;
    let violated = ref false in
    let count = Bfs.Scratch.visited_count sg in
    let i = ref 0 in
    while (not !violated) && !i < count do
      let v = Bfs.Scratch.visited sg !i in
      let d_g = Bfs.Scratch.dist sg v in
      if d_g > 1 then begin
        let d_h = Bfs.Scratch.dist sh v in
        let bound = (alpha *. float_of_int d_g) +. beta in
        if d_h < 0 || float_of_int d_h > bound +. 1e-9 then violated := true
      end;
      incr i
    done;
    if !violated then Atomic.set ok false
  in
  Sharded.drive ~n
    ~domains:(if n < 64 then 1 else domains)
    ~stop:(fun () -> not (Atomic.get ok))
    (fun claim ->
      let sg = Bfs.Scratch.create () and sh = Bfs.Scratch.create () in
      let items = ref 0 in
      let rec loop () =
        match claim () with
        | None -> ()
        | Some (lo, hi) ->
            let u = ref lo in
            (* early abort: a violation anywhere stops every domain
               at its next chunk claim (and this one mid-chunk) *)
            while Atomic.get ok && !u <= hi do
              check_source sg sh !u;
              incr u
            done;
            items := !items + (!u - lo);
            loop ()
      in
      loop ();
      !items);
  Atomic.get ok
