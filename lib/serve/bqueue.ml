type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  m : Mutex.t;
  mutable closed : bool;
}

type reject = Full of int | Closed

let reject_to_string = function
  | Full cap -> Printf.sprintf "queue full (capacity %d)" cap
  | Closed -> "queue closed (shutting down)"

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  { capacity; q = Queue.create (); m = Mutex.create (); closed = false }

let with_lock t f =
  Mutex.lock t.m;
  match f () with
  | v ->
      Mutex.unlock t.m;
      v
  | exception e ->
      Mutex.unlock t.m;
      raise e

let push t x =
  with_lock t @@ fun () ->
  if t.closed then Error Closed
  else if Queue.length t.q >= t.capacity then Error (Full t.capacity)
  else begin
    Queue.push x t.q;
    Ok ()
  end

let length t = with_lock t @@ fun () -> Queue.length t.q
let is_closed t = with_lock t @@ fun () -> t.closed

let close t = with_lock t @@ fun () -> t.closed <- true

let take_upto t max =
  with_lock t @@ fun () ->
  let rec go acc k =
    if k = 0 || Queue.is_empty t.q then List.rev acc
    else go (Queue.pop t.q :: acc) (k - 1)
  in
  go [] max

(* Timed waiting is a short poll loop rather than a condition variable:
   the stdlib [Condition] has no timed wait, and every consumer needs a
   bounded sleep anyway — the writer to refresh its watchdog heartbeat,
   readers to notice shutdown. 1 ms granularity is far below any
   request deadline or repair budget served here. *)
let pop_batch t ~max ~timeout_s =
  if max < 1 then invalid_arg "Bqueue.pop_batch: max must be >= 1";
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match take_upto t max with
    | _ :: _ as batch -> batch
    | [] ->
        if is_closed t || Unix.gettimeofday () >= deadline then []
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
  in
  wait ()
