open Rs_graph
open Rs_dynamic

(* {1 Flat directories} — store directories hold no subdirectories *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun name ->
      let data = In_channel.with_open_bin (Filename.concat src name) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

let truncate_file path len = Unix.truncate path len

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  if Unix.read fd b 0 1 <> 1 then failwith "flip_byte: short read";
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xA5));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  if Unix.write fd b 0 1 <> 1 then failwith "flip_byte: short write";
  Unix.close fd

(* {1 Random churn} *)

let random_op rand g =
  let n = Graph.n g in
  let m = Graph.m g in
  let pick () = Rand.int rand n in
  match Rand.int rand 100 with
  | r when r < 45 || m = 0 ->
      (* an absent pair is overwhelmingly likely in sparse graphs; a
         few tries suffice, and a present pair is still a valid op *)
      let rec go tries =
        let u = pick () and v = pick () in
        if u = v then go tries
        else if Graph.mem_edge g u v && tries > 0 then go (tries - 1)
        else Delta.Add_edge (u, v)
      in
      go 8
  | r when r < 80 ->
      let u, v = Graph.edge g (Rand.int rand m) in
      Delta.Remove_edge (u, v)
  | r when r < 90 -> Delta.Node_down (pick ())
  | _ ->
      let u = pick () in
      let links =
        List.init
          (1 + Rand.int rand 3)
          (fun _ ->
            let rec go () =
              let v = pick () in
              if v = u then go () else v
            in
            go ())
        |> List.sort_uniq compare
      in
      Delta.Node_up (u, links)

let random_delta rand g =
  let rec go tries =
    let ops = List.init (1 + Rand.int rand 3) (fun _ -> random_op rand g) in
    match Delta.effect g ops with
    | [], [] when tries > 0 -> go (tries - 1)
    | _ -> ops
  in
  go 16

let wait_until ?(timeout = 20.0) ~what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      failwith ("timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* {1 The runner} *)

type failure = { scenario : string; reason : string }
type report = { scenarios : int; counts : (string * int) list; failures : failure list }

let count r name = List.fold_left (fun acc (m, k) -> if m = name then acc + k else acc) 0 r.counts
let ok r = r.scenarios > 0 && r.failures = []

let pp_failures fmt r =
  List.iter (fun f -> Format.fprintf fmt "@,FAIL %s: %s" f.scenario f.reason) r.failures

let run ~suite ~min_n ~min_batches ?only ~seed ~n ~batches ~dir plan =
  if n < min_n then
    invalid_arg (Printf.sprintf "%s: need n >= %d vertices (got %d)" suite min_n n);
  if batches < min_batches then
    invalid_arg (Printf.sprintf "%s: need at least %d batches (got %d)" suite min_batches batches);
  mkdir_p dir;
  let scenarios = plan (Rand.create seed) in
  (match only with
  | Some s when not (List.mem_assoc s scenarios) ->
      invalid_arg
        (Printf.sprintf "%s: unknown scenario %s (known: %s)" suite s
           (String.concat ", " (List.map fst scenarios)))
  | _ -> ());
  List.fold_left
    (fun r (name, f) ->
      if only <> None && only <> Some name then r
      else
        let r = { r with scenarios = r.scenarios + 1 } in
        match f () with
        | tallies -> { r with counts = tallies @ r.counts }
        | exception e ->
            let reason = match e with Failure m -> m | e -> Printexc.to_string e in
            { r with failures = r.failures @ [ { scenario = name; reason } ] })
    { scenarios = 0; counts = []; failures = [] }
    scenarios
