type t = { g : Graph.t; bits : Bytes.t; mutable card : int }

let nbytes m = (m + 7) / 8

let create g = { g; bits = Bytes.make (nbytes (Graph.m g)) '\000'; card = 0 }

let host s = s.g

let get_bit s id = Char.code (Bytes.get s.bits (id lsr 3)) land (1 lsl (id land 7)) <> 0

let set_bit s id =
  let byte = id lsr 3 in
  Bytes.set s.bits byte (Char.chr (Char.code (Bytes.get s.bits byte) lor (1 lsl (id land 7))))

let clear_bit s id =
  let byte = id lsr 3 in
  Bytes.set s.bits byte
    (Char.chr (Char.code (Bytes.get s.bits byte) land lnot (1 lsl (id land 7)) land 0xff))

let full g =
  let s = create g in
  for id = 0 to Graph.m g - 1 do
    set_bit s id
  done;
  s.card <- Graph.m g;
  s

let copy s = { g = s.g; bits = Bytes.copy s.bits; card = s.card }

let add_id s id =
  if not (get_bit s id) then begin
    set_bit s id;
    s.card <- s.card + 1
  end

let add s u v = add_id s (Graph.edge_id s.g u v)

let remove s u v =
  match Graph.edge_id s.g u v with
  | id ->
      if get_bit s id then begin
        clear_bit s id;
        s.card <- s.card - 1
      end
  | exception Not_found -> ()

let mem_id s id = get_bit s id

let mem s u v =
  match Graph.edge_id s.g u v with
  | id -> get_bit s id
  | exception Not_found -> false

let cardinal s = s.card

let union_into dst src =
  if not (dst.g == src.g || Graph.equal dst.g src.g) then
    invalid_arg "Edge_set.union_into: different host graphs";
  for id = 0 to Graph.m src.g - 1 do
    if get_bit src id then add_id dst id
  done

let iter f s =
  for id = 0 to Graph.m s.g - 1 do
    if get_bit s id then
      let u, v = Graph.edge s.g id in
      f u v
  done

let to_list s =
  let acc = ref [] in
  iter (fun u v -> acc := (u, v) :: !acc) s;
  List.rev !acc

let to_adjacency s =
  let n = Graph.n s.g in
  let deg = Array.make n 0 in
  iter
    (fun u v ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    s;
  let adj = Array.init n (fun u -> Array.make deg.(u) 0) in
  let fill = Array.make n 0 in
  iter
    (fun u v ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    s;
  (* no sort: ids ascend in lexicographic order, so a row receives its
     smaller neighbors (as second endpoint, by increasing first) before
     its larger ones (as first endpoint, by increasing second) *)
  adj

(* members in id order are already canonical and strictly sorted *)
let to_graph s =
  let es = Array.make s.card (0, 0) and i = ref 0 in
  for id = 0 to Graph.m s.g - 1 do
    if get_bit s id then begin
      es.(!i) <- Graph.edge s.g id;
      incr i
    end
  done;
  Graph.of_canonical ~validate:false ~n:(Graph.n s.g) es

let subset a b =
  if Graph.m a.g <> Graph.m b.g then invalid_arg "Edge_set.subset: different hosts";
  let ok = ref true in
  for id = 0 to Graph.m a.g - 1 do
    if get_bit a id && not (get_bit b id) then ok := false
  done;
  !ok

let equal a b = a.card = b.card && subset a b

let pp fmt s =
  Format.fprintf fmt "@[<hov>{%d edges:@ " s.card;
  iter (fun u v -> Format.fprintf fmt "(%d,%d)@ " u v) s;
  Format.fprintf fmt "}@]"
