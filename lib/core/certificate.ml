open Rs_graph

(* [stamp.(v) = gen] iff [v] is a member of the tree replayed last;
   [depth], [par] and [hop] (the depth-1 ancestor) are only meaningful
   for members. [seen] stamps first hops with [token] while one sphere
   vertex's distinct branches are counted. *)
type t = {
  mutable stamp : int array;
  mutable depth : int array;
  mutable par : int array;
  mutable hop : int array;
  mutable seen : int array;
  mutable gen : int;
  mutable token : int;
  bfs : Bfs.Scratch.t;
}

let create () =
  { stamp = [||]; depth = [||]; par = [||]; hop = [||]; seen = [||]; gen = 0; token = 0;
    bfs = Bfs.Scratch.create () }

(* Grown arrays keep their old stamps: those are below the current
   generation, and the fresh zeros are below every generation. *)
let ensure t n =
  if Array.length t.stamp < n then begin
    let grow a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.stamp <- grow t.stamp;
    t.depth <- grow t.depth;
    t.par <- grow t.par;
    t.hop <- grow t.hop;
    t.seen <- grow t.seen
  end

let mem t v = t.stamp.(v) = t.gen

let replay t g ~root pairs =
  let n = Graph.n g in
  ensure t n;
  t.gen <- t.gen + 1;
  let len = Array.length pairs in
  if root < 0 || root >= n then Error (Printf.sprintf "root %d out of range" root)
  else if len mod 2 <> 0 then Error "malformed: odd pair array"
  else begin
    t.stamp.(root) <- t.gen;
    t.depth.(root) <- 0;
    t.par.(root) <- root;
    t.hop.(root) <- root;
    let rec go i =
      if i >= len then Ok ()
      else
        let p = pairs.(i) and c = pairs.(i + 1) in
        if not (Graph.mem_edge g p c) then
          Error (Printf.sprintf "edge (%d,%d) absent from the graph" p c)
        else if not (mem t p) then Error (Printf.sprintf "malformed: parent %d not in tree" p)
        else if c = root then Error "malformed: cannot re-parent the root"
        else if mem t c then Error (Printf.sprintf "malformed: child %d already has a parent" c)
        else begin
          t.stamp.(c) <- t.gen;
          t.depth.(c) <- t.depth.(p) + 1;
          t.par.(c) <- p;
          t.hop.(c) <- (if p = root then c else t.hop.(p));
          go (i + 2)
        end
    in
    go 0
  end

(* Every vertex of the last traversal at distance >= 2 must satisfy
   [covered v d]; stops at the first that does not. *)
let all_far t covered =
  let s = t.bfs in
  let count = Bfs.Scratch.visited_count s in
  let rec go i =
    i >= count
    ||
    let v = Bfs.Scratch.visited s i in
    let d = Bfs.Scratch.dist s v in
    (d < 2 || covered v d) && go (i + 1)
  in
  go 0

let exists_neighbor g v f =
  let off, nbr = Graph.csr g in
  let rec go i = i < off.(v + 1) && (f nbr.(i) || go (i + 1)) in
  go off.(v)

(* (r, beta)-dominating: every v with 2 <= d(u, v) <= r has a tree
   neighbor x with d_T(u, x) <= d(u, v) - 1 + beta. *)
let dominating t g ~root ~r ~beta =
  Bfs.Scratch.run ~radius:r t.bfs g root;
  all_far t (fun v d ->
      exists_neighbor g v (fun x -> mem t x && t.depth.(x) <= d - 1 + beta))

(* k-connecting (2, beta)-dominating: every v at distance 2 has k tree
   neighbors within depth 1 + beta under distinct root children, or
   every common neighbor of root and v is a child of the root. *)
let k_dominating t g ~root ~k ~beta =
  Bfs.Scratch.run ~radius:2 t.bfs g root;
  let off, nbr = Graph.csr g in
  all_far t (fun v _ ->
      t.token <- t.token + 1;
      (* distinct first hops, stopping at the k-th *)
      let rec branches i found =
        found >= k
        || i < off.(v + 1)
           &&
           let x = nbr.(i) in
           if x <> root && mem t x && t.depth.(x) <= 1 + beta && t.seen.(t.hop.(x)) <> t.token
           then begin
             t.seen.(t.hop.(x)) <- t.token;
             branches (i + 1) (found + 1)
           end
           else branches (i + 1) found
      in
      branches off.(v) 0
      || not
           (exists_neighbor g v (fun w ->
                Bfs.Scratch.dist t.bfs w = 1 && not (mem t w && t.par.(w) = root))))

let check t g strategy ~root pairs =
  match replay t g ~root pairs with
  | Error _ -> false
  | Ok () -> (
      match (strategy : Sharded.strategy) with
      | Gdy { r; beta } -> dominating t g ~root ~r ~beta
      | Mis { r } -> dominating t g ~root ~r ~beta:1
      | Gdy_k { k } -> k_dominating t g ~root ~k ~beta:0
      | Mis_k { k } -> k_dominating t g ~root ~k ~beta:1)
