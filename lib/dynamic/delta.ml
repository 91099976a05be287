open Rs_graph

type op =
  | Add_edge of int * int
  | Remove_edge of int * int
  | Node_down of int
  | Node_up of int * int list

type t = op list

let check_vertex n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Delta: vertex %d out of range [0..%d)" v n)

let check_edge n u v =
  check_vertex n u;
  check_vertex n v;
  if u = v then invalid_arg (Printf.sprintf "Delta: self-loop at vertex %d" u)

(* The net effect is an overlay over [g]: a small table from encoded
   edge to its presence after the ops so far, consulted before
   [Graph.mem_edge]. Only the edges an op names (and a downed node's
   current edges) enter it, so the cost is O(ops + degree of downed
   nodes), never O(m). *)
let encode n u v = if u <= v then (u * n) + v else (v * n) + u
let decode n e = (e / n, e mod n)

let effect g ops =
  let n = Graph.n g in
  let overlay = Hashtbl.create 16 in
  let set u v present = Hashtbl.replace overlay (encode n u v) present in
  List.iter
    (function
      | Add_edge (u, v) ->
          check_edge n u v;
          set u v true
      | Remove_edge (u, v) ->
          check_edge n u v;
          set u v false
      | Node_down u ->
          check_vertex n u;
          Graph.iter_neighbors g u (fun v -> set u v false);
          let linked =
            Hashtbl.fold
              (fun e present acc ->
                let a, b = decode n e in
                if present && (a = u || b = u) then e :: acc else acc)
              overlay []
          in
          List.iter (fun e -> Hashtbl.replace overlay e false) linked
      | Node_up (u, links) ->
          List.iter
            (fun v ->
              check_edge n u v;
              set u v true)
            links)
    ops;
  (* sorting the int encodings with [Int.compare] is the lexicographic
     pair order, without polymorphic compare on tuples *)
  let net want =
    Hashtbl.fold
      (fun e present acc ->
        let u, v = decode n e in
        if present = want && Graph.mem_edge g u v <> want then e :: acc else acc)
      overlay []
    |> List.sort Int.compare |> List.map (decode n)
  in
  (net true, net false)

type change = {
  before : Graph.t;
  after : Graph.t;
  added : (int * int) list;
  removed : (int * int) list;
}

let change g ops =
  let added, removed = effect g ops in
  let after = if added = [] && removed = [] then g else Graph.patch g ~added ~removed in
  { before = g; after; added; removed }

let quiescent c = c.added = [] && c.removed = []
let apply g ops = (change g ops).after

(* one merge over the two sorted edge arrays *)
let diff g g' =
  if Graph.n g <> Graph.n g' then
    invalid_arg
      (Printf.sprintf "Delta.diff: vertex counts differ (%d vs %d)" (Graph.n g)
         (Graph.n g'));
  let e = Graph.edges g and e' = Graph.edges g' in
  let m = Array.length e and m' = Array.length e' in
  let removes = ref [] and adds = ref [] in
  let rec go i j =
    if i < m || j < m' then begin
      let c =
        if i >= m then 1
        else if j >= m' then -1
        else
          let (u, v), (u', v') = (e.(i), e'.(j)) in
          if u <> u' then Int.compare u u' else Int.compare v v'
      in
      if c = 0 then go (i + 1) (j + 1)
      else if c < 0 then begin
        removes := Remove_edge (fst e.(i), snd e.(i)) :: !removes;
        go (i + 1) j
      end
      else begin
        adds := Add_edge (fst e'.(j), snd e'.(j)) :: !adds;
        go i (j + 1)
      end
    end
  in
  go 0 0;
  List.rev_append !removes (List.rev !adds)

let touched ~added ~removed =
  let m = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace m u ();
      Hashtbl.replace m v ())
    added;
  List.iter
    (fun (u, v) ->
      Hashtbl.replace m u ();
      Hashtbl.replace m v ())
    removed;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) m [])

(* ------------------------------------------------------------------ *)
(* delta files *)

let parse text =
  let ops = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let toks =
        String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
        |> List.filter (( <> ) "")
      in
      let bad why = failwith (Printf.sprintf "Delta.parse: line %d: %s" (i + 1) why) in
      let int s =
        match int_of_string_opt s with
        | Some v -> v
        | None -> bad ("not an integer: " ^ s)
      in
      match toks with
      | [] -> ()
      | [ "add"; u; v ] -> ops := Add_edge (int u, int v) :: !ops
      | [ "remove"; u; v ] -> ops := Remove_edge (int u, int v) :: !ops
      | [ "down"; u ] -> ops := Node_down (int u) :: !ops
      | "up" :: u :: links when links <> [] ->
          ops := Node_up (int u, List.map int links) :: !ops
      | "add" :: _ -> bad "expected: add U V"
      | "remove" :: _ -> bad "expected: remove U V"
      | "down" :: _ -> bad "expected: down U"
      | "up" :: _ -> bad "expected: up U V1 [V2 ...]"
      | kw :: _ -> bad ("unknown directive: " ^ kw))
    lines;
  List.rev !ops

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let pp_op fmt = function
  | Add_edge (u, v) -> Format.fprintf fmt "add %d %d" u v
  | Remove_edge (u, v) -> Format.fprintf fmt "remove %d %d" u v
  | Node_down u -> Format.fprintf fmt "down %d" u
  | Node_up (u, links) ->
      Format.fprintf fmt "up %d%t" u (fun fmt ->
          List.iter (fun v -> Format.fprintf fmt " %d" v) links)

let to_string ops =
  let buf = Buffer.create (16 * (1 + List.length ops)) in
  List.iter
    (fun op ->
      (match op with
      | Add_edge (u, v) -> Buffer.add_string buf (Printf.sprintf "add %d %d" u v)
      | Remove_edge (u, v) -> Buffer.add_string buf (Printf.sprintf "remove %d %d" u v)
      | Node_down u -> Buffer.add_string buf (Printf.sprintf "down %d" u)
      | Node_up (u, links) ->
          Buffer.add_string buf (Printf.sprintf "up %d" u);
          List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) links);
      Buffer.add_char buf '\n')
    ops;
  Buffer.contents buf
