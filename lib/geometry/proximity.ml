module Graph = Rs_graph.Graph
module Edge_set = Rs_graph.Edge_set

let check_pts pts g =
  if Array.length pts <> Graph.n g then invalid_arg "Proximity: size mismatch";
  Array.iter
    (fun p -> if Array.length p <> 2 then invalid_arg "Proximity: need 2-D points")
    pts

let gabriel pts g =
  check_pts pts g;
  let keep = Edge_set.create g in
  Graph.iter_edges
    (fun u v ->
      let cx = (pts.(u).(0) +. pts.(v).(0)) /. 2.0
      and cy = (pts.(u).(1) +. pts.(v).(1)) /. 2.0 in
      let r2 =
        let dx = pts.(u).(0) -. cx and dy = pts.(u).(1) -. cy in
        (dx *. dx) +. (dy *. dy)
      in
      let blocked = ref false in
      Array.iteri
        (fun w p ->
          if w <> u && w <> v then begin
            let dx = p.(0) -. cx and dy = p.(1) -. cy in
            if (dx *. dx) +. (dy *. dy) < r2 -. 1e-12 then blocked := true
          end)
        pts;
      if not !blocked then Edge_set.add keep u v)
    g;
  keep

let relative_neighborhood pts g =
  check_pts pts g;
  let keep = Edge_set.create g in
  Graph.iter_edges
    (fun u v ->
      let duv = Point.l2 pts.(u) pts.(v) in
      let blocked = ref false in
      Array.iteri
        (fun w p ->
          if w <> u && w <> v then
            if Float.max (Point.l2 pts.(u) p) (Point.l2 pts.(v) p) < duv -. 1e-12 then
              blocked := true)
        pts;
      if not !blocked then Edge_set.add keep u v)
    g;
  keep

let yao ?(cones = 6) pts g =
  check_pts pts g;
  if cones < 1 then invalid_arg "Proximity.yao: cones >= 1";
  let keep = Edge_set.create g in
  let sector u v =
    let dx = pts.(v).(0) -. pts.(u).(0) and dy = pts.(v).(1) -. pts.(u).(1) in
    let a = Float.atan2 dy dx in
    let a = if a < 0.0 then a +. (2.0 *. Float.pi) else a in
    min (cones - 1) (int_of_float (a /. (2.0 *. Float.pi /. float_of_int cones)))
  in
  Graph.iter_vertices
    (fun u ->
      let best = Array.make cones (-1) in
      Array.iter
        (fun v ->
          let s = sector u v in
          if best.(s) < 0 || Point.l2 pts.(u) pts.(v) < Point.l2 pts.(u) pts.(best.(s)) then
            best.(s) <- v)
        (Graph.neighbors g u);
      Array.iter (fun v -> if v >= 0 then Edge_set.add keep u v) best)
    g;
  keep
