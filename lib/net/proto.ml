module Service = Rs_serve.Service
module Delta = Rs_dynamic.Delta

type outcome = Reply of string | Silent | Quit

type env = {
  service : Service.t;
  on_delta : Delta.t -> (unit, string) result;
  stopped : unit -> bool;
}

let leader_env service =
  {
    service;
    on_delta = (fun d -> Service.offer service d);
    stopped = (fun () -> false);
  }

(* Formats below are pinned by test/cli.t — the stdin path printed
   them verbatim before the TCP transport existed. *)
let format_response label (r : Service.response) =
  let ints xs = String.concat " " (List.map string_of_int xs) in
  let stale = if r.Service.stale then " [stale]" else "" in
  match r.Service.answer with
  | Error Service.Timeout -> Printf.sprintf "%s: timeout" label
  | Error (Service.Overloaded reason) ->
      Printf.sprintf "%s: overloaded (%s)" label reason
  | Error (Service.Bad_request m) -> Printf.sprintf "%s: bad request (%s)" label m
  | Ok (Service.Route_a { path = None; shortest }) ->
      Printf.sprintf "%s: unreachable (shortest %d)%s" label shortest stale
  | Ok (Service.Route_a { path = Some p; shortest }) ->
      Printf.sprintf "%s: %s (%d hops, shortest %d)%s" label (ints p)
        (List.length p - 1) shortest stale
  | Ok (Service.Paths_a None) -> Printf.sprintf "%s: none%s" label stale
  | Ok (Service.Paths_a (Some ps)) ->
      Printf.sprintf "%s: %s%s" label
        (String.concat " | " (List.map ints ps))
        stale
  | Ok (Service.Advert_a ns) -> Printf.sprintf "%s: %s%s" label (ints ns) stale
  | Ok (Service.Stats_a { n; m; spanner; advert; seq }) ->
      Printf.sprintf "%s: n=%d m=%d spanner=%d advert=%d seq=%d%s" label n m
        spanner advert seq stale
  | Ok (Service.Status_a _) -> Printf.sprintf "%s: ok" label

let exec env line =
  let svc = env.service in
  let eval () =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Silent
    else
      let parts = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
      let node s =
        match int_of_string_opt s with
        | Some v -> v
        | None -> failwith ("not an integer: " ^ s)
      in
      match parts with
      | [ "quit" ] -> Quit
      | [ "status" ] -> Reply (Service.health svc)
      | [ "stats" ] -> Reply (format_response "stats" (Service.query svc Service.Stats))
      | [ "route"; a; b ] ->
          Reply
            (format_response
               (Printf.sprintf "route %s %s" a b)
               (Service.query svc (Service.Route { src = node a; dst = node b })))
      | [ "paths"; a; b; kk ] ->
          Reply
            (format_response
               (Printf.sprintf "paths %s %s %s" a b kk)
               (Service.query svc
                  (Service.Paths { src = node a; dst = node b; k = node kk })))
      | [ "advert"; u ] ->
          Reply
            (format_response
               (Printf.sprintf "advert %s" u)
               (Service.query svc (Service.Advert (node u))))
      | "delta" :: rest when rest <> [] -> (
          match Delta.parse (String.concat " " rest) with
          | exception Failure m -> Reply (Printf.sprintf "delta rejected: %s" m)
          | d -> (
              match env.on_delta d with
              | Ok () -> Reply "delta accepted"
              | Error reason -> Reply (Printf.sprintf "delta rejected: %s" reason)))
      | [ "drain" ] ->
          let timed_out = not (Service.wait_idle ~timeout_s:60.0 ~cancel:env.stopped svc) in
          let drained = Printf.sprintf "drained at seq %d" (Service.view_seq svc) in
          Reply (if timed_out then "drain: timed out\n" ^ drained else drained)
      | [ "sleep"; s ] -> (
          match float_of_string_opt s with
          | Some dt when dt >= 0. ->
              Unix.sleepf dt;
              Silent
          | _ -> Reply "sleep: not a duration")
      | cmd :: _ -> Reply (Printf.sprintf "error: unknown command '%s'" cmd)
      | [] -> Silent
  in
  match eval () with r -> r | exception Failure m -> Reply ("error: " ^ m)
