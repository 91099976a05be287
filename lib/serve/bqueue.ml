type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;  (* signalled by push, broadcast by close *)
  mutable closed : bool;
}

type reject = Full of int | Closed

let reject_to_string = function
  | Full cap -> Printf.sprintf "queue full (capacity %d)" cap
  | Closed -> "queue closed (shutting down)"

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  { capacity; q = Queue.create (); m = Mutex.create (); nonempty = Condition.create ();
    closed = false }

let push t x =
  Mutex.protect t.m @@ fun () ->
  if t.closed then Error Closed
  else if Queue.length t.q >= t.capacity then Error (Full t.capacity)
  else begin
    Queue.push x t.q;
    Condition.signal t.nonempty;
    Ok ()
  end

let length t = Mutex.protect t.m @@ fun () -> Queue.length t.q

let close t =
  Mutex.protect t.m @@ fun () ->
  t.closed <- true;
  Condition.broadcast t.nonempty

(* under [t.m] *)
let take_locked t max =
  let rec go acc k =
    if k = 0 || Queue.is_empty t.q then List.rev acc
    else go (Queue.pop t.q :: acc) (k - 1)
  in
  go [] max

let check_max max = if max < 1 then invalid_arg "Bqueue: max must be >= 1"

let take t ~max =
  check_max max;
  Mutex.protect t.m @@ fun () -> take_locked t max

let pop_batch t ~max =
  check_max max;
  Mutex.protect t.m @@ fun () ->
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.nonempty t.m
  done;
  take_locked t max
