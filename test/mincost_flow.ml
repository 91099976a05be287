open Rs_graph

type t = {
  n : int;
  (* arc-parallel arrays; arc i and i lxor 1 are mutual residuals *)
  mutable head : int array;
  mutable cap : int array;
  mutable cost : int array;
  mutable narcs : int;
  out : int list array; (* arcs leaving each node, most recent first *)
  pot : int array; (* Johnson potentials *)
  mutable original : int list; (* ids of user-added arcs, reversed *)
}

let create n =
  {
    n;
    head = Array.make 16 0;
    cap = Array.make 16 0;
    cost = Array.make 16 0;
    narcs = 0;
    out = Array.make n [];
    pot = Array.make n 0;
    original = [];
  }

let grow net =
  let len = Array.length net.head in
  if net.narcs + 2 > len then begin
    let len' = 2 * len in
    let copy a def =
      let b = Array.make len' def in
      Array.blit a 0 b 0 len;
      b
    in
    net.head <- copy net.head 0;
    net.cap <- copy net.cap 0;
    net.cost <- copy net.cost 0
  end

let add_arc net ~src ~dst ~cap ~cost =
  if cap < 0 || cost < 0 then invalid_arg "Mincost_flow.add_arc: negative cap/cost";
  if src < 0 || src >= net.n || dst < 0 || dst >= net.n then
    invalid_arg "Mincost_flow.add_arc: node out of range";
  grow net;
  let a = net.narcs in
  net.head.(a) <- dst;
  net.cap.(a) <- cap;
  net.cost.(a) <- cost;
  net.head.(a + 1) <- src;
  net.cap.(a + 1) <- 0;
  net.cost.(a + 1) <- -cost;
  net.out.(src) <- a :: net.out.(src);
  net.out.(dst) <- (a + 1) :: net.out.(dst);
  net.narcs <- net.narcs + 2;
  net.original <- a :: net.original

module Heap = Heap.Make (Int)

let augment_unit net ~s ~t_ =
  let inf = max_int / 4 in
  let dist = Array.make net.n inf in
  let prev_arc = Array.make net.n (-1) in
  let heap = Heap.create () in
  dist.(s) <- 0;
  Heap.push heap 0 s;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if d <= dist.(u) then
          List.iter
            (fun a ->
              if net.cap.(a) > 0 then begin
                let v = net.head.(a) in
                let rc = net.cost.(a) + net.pot.(u) - net.pot.(v) in
                (* reduced costs are non-negative by induction on augmentations *)
                let nd = d + rc in
                if nd < dist.(v) then begin
                  dist.(v) <- nd;
                  prev_arc.(v) <- a;
                  Heap.push heap nd v
                end
              end)
            net.out.(u);
        drain ()
  in
  drain ();
  if dist.(t_) >= inf then None
  else begin
    (* Unreachable nodes take the sink's label so reduced costs stay
       non-negative on every residual arc in later iterations. *)
    let dt = dist.(t_) in
    for v = 0 to net.n - 1 do
      net.pot.(v) <- net.pot.(v) + (if dist.(v) < inf then dist.(v) else dt)
    done;
    (* trace back, pushing one unit and accumulating the real cost *)
    let real_cost = ref 0 in
    let v = ref t_ in
    while !v <> s do
      let a = prev_arc.(!v) in
      net.cap.(a) <- net.cap.(a) - 1;
      net.cap.(a lxor 1) <- net.cap.(a lxor 1) + 1;
      real_cost := !real_cost + net.cost.(a);
      v := net.head.(a lxor 1)
    done;
    Some !real_cost
  end

let min_cost_units net ~s ~t_ ~max_units =
  let rec loop i acc =
    if i >= max_units then List.rev acc
    else
      match augment_unit net ~s ~t_ with
      | None -> List.rev acc
      | Some c -> loop (i + 1) (c :: acc)
  in
  loop 0 []

let flow_on net ~arc =
  let ids = Array.of_list (List.rev net.original) in
  if arc < 0 || arc >= Array.length ids then invalid_arg "Mincost_flow.flow_on";
  net.cap.(ids.(arc) lxor 1)

let arcs_with_flow net =
  List.rev_map
    (fun a ->
      let flow = net.cap.(a lxor 1) in
      (net.head.(a lxor 1), net.head.(a), flow))
    net.original
  |> List.filter (fun (_, _, f) -> f > 0)
