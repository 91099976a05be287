open Rs_graph
module Setcover = Rs_setcover.Setcover
module Obs = Rs_obs.Obs

let c_trees = Obs.counter "domtree/trees_built"
let c_layers = Obs.counter "domtree/layers"
let h_candidates = Obs.histogram "domtree/candidate_set"

(* Sphere/annulus covering instance for one layer: elements are the
   sphere nodes, sets are the balls B(x, 1) for annulus candidates x.
   [B(x,1)] includes x itself, which matters when beta >= 1 and x lies
   on the sphere. *)
let layer_cover g dist r' beta =
  let sphere = ref [] and annulus = ref [] in
  Graph.iter_vertices
    (fun v ->
      if dist.(v) = r' then sphere := v :: !sphere;
      if dist.(v) >= r' - 1 && dist.(v) <= r' - 1 + beta then annulus := v :: !annulus)
    g;
  let sphere = Array.of_list (List.rev !sphere) in
  let annulus = Array.of_list (List.rev !annulus) in
  let elt_of = Hashtbl.create (Array.length sphere) in
  Array.iteri (fun i v -> Hashtbl.replace elt_of v i) sphere;
  let ball_of x =
    let acc = ref [] in
    (match Hashtbl.find_opt elt_of x with Some i -> acc := [ i ] | None -> ());
    Array.iter
      (fun w -> match Hashtbl.find_opt elt_of w with Some i -> acc := i :: !acc | None -> ())
      (Graph.neighbors g x);
    Array.of_list !acc
  in
  let sets = Array.map ball_of annulus in
  (sphere, annulus, { Setcover.universe = Array.length sphere; sets })

let scratch_or = function Some s -> s | None -> Bfs.Scratch.create ()

(* The explored ball grouped by BFS level, each level sorted by id so
   downstream scans match the historical iter_vertices order. *)
let levels_of s ~max_dist =
  let levels = Array.make (max_dist + 1) [] in
  for i = Bfs.Scratch.visited_count s - 1 downto 0 do
    let v = Bfs.Scratch.visited s i in
    let d = Bfs.Scratch.dist s v in
    levels.(d) <- v :: levels.(d)
  done;
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Array.sort Int.compare a;
      a)
    levels

(* Edge-emitting core of Algorithm 1: everything after the traversal,
   abstracted over how tree membership is stored ([mem]/[add], where
   [add p c] records edge (p, c) and makes [c] a member). The per-root
   wrapper below instantiates it with the scratch's stamped tree set;
   the batched builder ([Sharded]) with its per-domain stamped arrays.
   [levels] is the explored ball grouped by BFS level (levels
   0..r+beta, each id-sorted); [parent_of] the canonical BFS parent
   within the ball. *)
let gdy_emit g ~r ~beta ~levels ~parent_of ~mem ~add =
  Obs.incr c_trees;
  let rec graft v =
    if not (mem v) then begin
      let p = parent_of v in
      graft p;
      add p v
    end
  in
  for r' = 2 to r do
    let sphere = levels.(r') in
    let annulus =
      let parts = ref [] and total = ref 0 in
      for d = min (r' - 1 + beta) (r + beta) downto r' - 1 do
        parts := levels.(d) :: !parts;
        total := !total + Array.length levels.(d)
      done;
      let a = Array.concat !parts in
      (* merged annulus must be id-sorted: the greedy tie-break is
         "smallest candidate id", realized as smallest index *)
      Array.sort Int.compare a;
      assert (Array.length a = !total);
      a
    in
    Obs.incr c_layers;
    Obs.observe h_candidates (float_of_int (Array.length annulus));
    let elt_of = Hashtbl.create (Array.length sphere) in
    Array.iteri (fun i v -> Hashtbl.replace elt_of v i) sphere;
    let ball_of x =
      let acc = ref [] in
      (match Hashtbl.find_opt elt_of x with Some i -> acc := [ i ] | None -> ());
      Graph.iter_neighbors g x (fun w ->
          match Hashtbl.find_opt elt_of w with Some i -> acc := i :: !acc | None -> ());
      Array.of_list !acc
    in
    let inst = { Setcover.universe = Array.length sphere; sets = Array.map ball_of annulus } in
    (* lazy-greedy cover, grafting the shortest path per chosen annulus
       node (same picks, same order as the historical eager rescan) *)
    let picks = Setcover.greedy inst in
    let covered = Array.make (Array.length sphere) false in
    let ncov = ref 0 in
    List.iter
      (fun sid ->
        graft annulus.(sid);
        Array.iter
          (fun e ->
            if not covered.(e) then begin
              covered.(e) <- true;
              incr ncov
            end)
          inst.Setcover.sets.(sid))
      picks;
    (* The paper argues a positive-coverage candidate always exists
       while S is non-empty (the neighbor of an undominated sphere
       node on a shortest path qualifies) — so greedy covers fully. *)
    assert (!ncov = Array.length sphere)
  done

(* Runs an emit core for [root] against the scratch's stamped tree set
   and returns its pairs flat, in emission order. Allocates only the
   tree-sized result. *)
let collect s root emit =
  let tree = Bfs.Scratch.tree s in
  Bfs.Marks.clear tree;
  Bfs.Marks.set tree root;
  let acc = ref [] and len = ref 0 in
  emit ~mem:(Bfs.Marks.mem tree) ~add:(fun p c ->
      Bfs.Marks.set tree c;
      acc := c :: p :: !acc;
      len := !len + 2);
  let pairs = Array.make !len 0 in
  List.iteri (fun i x -> pairs.(!len - 1 - i) <- x) !acc;
  pairs

let gdy ?scratch g ~r ~beta u =
  if r < 1 || beta < 0 then invalid_arg "Dom_tree.gdy: need r >= 1, beta >= 0";
  let s = scratch_or scratch in
  (* one traversal yields both distances and canonical parents *)
  Bfs.Scratch.run ~radius:(r + beta) s g u;
  let levels = levels_of s ~max_dist:(r + beta) in
  collect s u (gdy_emit g ~r ~beta ~levels ~parent_of:(Bfs.Scratch.parent s))

(* Edge-emitting core of Algorithm 2; [mem]/[add] as in {!gdy_emit},
   [dead_mem]/[dead_add] the MIS "removed" set. [levels] as in
   {!gdy_emit} with levels 0..r: concatenating levels 2..r in order
   is exactly the (distance, id)-increasing processing order. *)
let mis_emit g ~r ~levels ~parent_of ~mem ~add ~dead_mem ~dead_add =
  Obs.incr c_trees;
  let rec graft v =
    if not (mem v) then begin
      let p = parent_of v in
      graft p;
      add p v
    end
  in
  let order = Array.concat (List.init (max 0 (r - 1)) (fun i -> levels.(i + 2))) in
  Obs.observe h_candidates (float_of_int (Array.length order));
  Array.iter
    (fun x ->
      if not (dead_mem x) then begin
        graft x;
        dead_add x;
        Graph.iter_neighbors g x dead_add
      end)
    order

let mis ?scratch g ~r u =
  if r < 1 then invalid_arg "Dom_tree.mis: need r >= 1";
  let s = scratch_or scratch in
  Bfs.Scratch.run ~radius:r s g u;
  let levels = levels_of s ~max_dist:r in
  let dead = Bfs.Scratch.marks s in
  Bfs.Marks.clear dead;
  collect s u (fun ~mem ~add ->
      mis_emit g ~r ~levels ~parent_of:(Bfs.Scratch.parent s) ~mem ~add
        ~dead_mem:(Bfs.Marks.mem dead) ~dead_add:(Bfs.Marks.set dead))

let optimal_size_star ?limit g u =
  let dist = Bfs.dist ~radius:2 g u in
  let _, _, inst = layer_cover g dist 2 0 in
  if inst.Setcover.universe = 0 then Some 0
  else
    Option.map List.length (Setcover.exact ?limit inst ~k:1)

let optimal_lower_bound ?limit g ~r ~beta u =
  let dist = Bfs.dist ~radius:(r + beta) g u in
  let exception Blowup in
  try
    let per_layer = ref [] in
    for r' = 2 to r do
      let _, _, inst = layer_cover g dist r' beta in
      if inst.Setcover.universe > 0 then
        match Setcover.exact ?limit inst ~k:1 with
        | Some cover -> per_layer := (r', List.length cover) :: !per_layer
        | None -> raise Blowup
    done;
    let depth_bound =
      List.fold_left
        (fun acc (r', c) -> max acc (r' - 1 + ((c - 1 + beta) / (1 + beta))))
        0 !per_layer
    in
    let sum_bound =
      let s = List.fold_left (fun acc (_, c) -> acc + c) 0 !per_layer in
      (s + beta) / (1 + beta)
    in
    Some (max depth_bound sum_bound)
  with Blowup -> None
