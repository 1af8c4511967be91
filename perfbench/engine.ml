(* The load generator's event loop: one thread, non-blocking sockets, a
   send queue per connection, and [select] with the next due time as its
   timeout.  It never blocks on a write, so it cannot deadlock against a
   server that blocks writing replies to it, and it always drains replies
   while it waits.

   A phase sends a fixed array of pre-rendered requests, either closed
   loop (a window of outstanding requests per connection) or open loop (a
   fixed schedule, request [j] due at [t0 + j / rate]), and checks every
   reply byte for byte against the reply the reference oracle predicts. *)

module Clock = Selest.Obs.Clock

type req = {
  conn : int;  (** index of the connection it goes out on *)
  line : string;  (** the same request in the text protocol, no newline *)
  wire : string;  (** the request bytes, framing included *)
  expect : string;  (** the reply bytes, framing included *)
  prefix : bool;  (** [expect] is only a prefix of the reply *)
  queries : int;  (** EST bodies the request carries *)
}

type conn = {
  fd : Unix.file_descr;
  bin : bool;  (** replies are length-prefixed frames, not lines *)
  mutable obuf : Bytes.t;  (** send queue: bytes [o_lo, o_hi) are pending *)
  mutable o_lo : int;
  mutable o_hi : int;
  mutable rbuf : Bytes.t;
  mutable r_lo : int;
  mutable r_hi : int;
  ring : int array;  (** request indices in flight, oldest first *)
  mutable head : int;
  mutable count : int;
  mutable cursor : int;  (** closed loop: next request index to consider *)
  mutable closed : bool;
}

let ring_cap = 1 lsl 20

external set_timerslack : int -> unit = "perfbench_set_timerslack"
(** [set_timerslack ns] sets this thread's timer slack; 0 restores the
    default.  Children inherit it, so the server is spawned with the
    default (see {!Proc.spawn}). *)

let precise_timers () = set_timerslack 1
let default_timers () = set_timerslack 0
let spin_ns = 50_000

let connect ~socket ~bin =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  if bin then begin
    (* The BIN hello is answered with a text line before framing starts. *)
    let hello = Selest.Serve.Protocol.Bin.hello ^ "\n" in
    ignore (Unix.write_substring fd hello 0 (String.length hello));
    let b = Bytes.create 64 in
    let n = Unix.read fd b 0 64 in
    if Bytes.sub_string b 0 n <> Selest.Serve.Protocol.Bin.hello_ok ^ "\n" then
      failwith "BIN upgrade refused"
  end;
  Unix.set_nonblock fd;
  {
    fd;
    bin;
    obuf = Bytes.create 65536;
    o_lo = 0;
    o_hi = 0;
    rbuf = Bytes.create 65536;
    r_lo = 0;
    r_hi = 0;
    ring = Array.make ring_cap 0;
    head = 0;
    count = 0;
    cursor = 0;
    closed = false;
  }

let close c = if not c.closed then (c.closed <- true; Unix.close c.fd)

type result = {
  sent : int;
  ok : int;  (** requests whose reply matched *)
  failed : int;  (** mismatches, ERR/BUSY replies and timeouts *)
  ok_queries : int;  (** EST bodies answered correctly *)
  elapsed_ns : int;  (** first send to last reply *)
  cpu_s : float;  (** generator CPU time over the phase *)
  lat_ns : int array;  (** per request: reply time minus due (open) or send (closed) time *)
  late_ns : int array;  (** open loop: send time minus due time *)
  replies : string array;  (** replies kept for [keep] requests *)
}

type mode = Closed of int | Open of float

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A phase gives up on requests still unanswered after this long without
   any reply, counting them as failed. *)
let timeout_s = 20.0

(* [on_mismatch i reply] is told about each failed request. *)
let run ?(keep = false) ?(on_mismatch = fun _ _ -> ()) ~mode
    (conns : conn array) (reqs : req array) =
  let n = Array.length reqs in
  let sent_at = Array.make n 0 in
  let lat = Array.make n 0 in
  let late = Array.make n 0 in
  let replies = if keep then Array.make n "" else [||] in
  let sent = ref 0 and done_ = ref 0 and ok = ref 0 and failed = ref 0 in
  let okq = ref 0 in
  let cpu0 = cpu () in
  let t0 = Clock.now_ns () in
  let last_progress = ref t0 in
  let interval_ns = match mode with Open rate -> 1e9 /. rate | Closed _ -> 0.0 in
  let due j = t0 + int_of_float (float_of_int j *. interval_ns) in
  let enqueue c i =
    let r = reqs.(i) in
    let len = String.length r.wire in
    if c.o_hi + len > Bytes.length c.obuf then begin
      let pending = c.o_hi - c.o_lo in
      let b =
        if pending + len > Bytes.length c.obuf / 2 then
          Bytes.create (2 * (pending + len + Bytes.length c.obuf))
        else c.obuf
      in
      Bytes.blit c.obuf c.o_lo b 0 pending;
      c.obuf <- b;
      c.o_lo <- 0;
      c.o_hi <- pending
    end;
    Bytes.blit_string r.wire 0 c.obuf c.o_hi len;
    c.o_hi <- c.o_hi + len;
    if c.count = ring_cap then failwith "more than 2^20 requests in flight on one connection";
    c.ring.((c.head + c.count) land (ring_cap - 1)) <- i;
    c.count <- c.count + 1;
    incr sent
  in
  let fail_conn c =
    (* The server hung up: everything in flight on [c] fails. *)
    while c.count > 0 do
      let i = c.ring.(c.head) in
      on_mismatch i "<connection closed>";
      c.head <- (c.head + 1) land (ring_cap - 1);
      c.count <- c.count - 1;
      incr failed;
      incr done_
    done;
    close c
  in
  let flush c =
    let len = c.o_hi - c.o_lo in
    if len > 0 && not c.closed then begin
      (match Unix.write c.fd c.obuf c.o_lo len with
      | k -> c.o_lo <- c.o_lo + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> fail_conn c);
      if c.o_lo = c.o_hi then begin
        c.o_lo <- 0;
        c.o_hi <- 0
      end
    end
  in
  let complete c ~now ~off ~len =
    let i = c.ring.(c.head) in
    c.head <- (c.head + 1) land (ring_cap - 1);
    c.count <- c.count - 1;
    incr done_;
    let r = reqs.(i) in
    let el = String.length r.expect in
    let matches =
      (if r.prefix then len >= el else len = el)
      &&
      let rec eq k = k >= el || (Bytes.unsafe_get c.rbuf (off + k) = String.unsafe_get r.expect k && eq (k + 1)) in
      eq 0
    in
    if keep then replies.(i) <- Bytes.sub_string c.rbuf off len;
    if matches then begin
      incr ok;
      okq := !okq + r.queries
    end
    else begin
      incr failed;
      on_mismatch i (Bytes.sub_string c.rbuf off len)
    end;
    lat.(i) <- now - sent_at.(i)
  in
  let parse c ~now =
    let continue = ref true in
    while !continue && c.count > 0 do
      let avail = c.r_hi - c.r_lo in
      if c.bin then begin
        if avail < 4 then continue := false
        else begin
          let len = Int32.to_int (Bytes.get_int32_be c.rbuf c.r_lo) land 0xffff_ffff in
          if avail < 4 + len then continue := false
          else begin
            complete c ~now ~off:c.r_lo ~len:(4 + len);
            c.r_lo <- c.r_lo + 4 + len
          end
        end
      end
      else
        let nl = ref c.r_lo in
        while !nl < c.r_hi && Bytes.unsafe_get c.rbuf !nl <> '\n' do
          incr nl
        done;
        if !nl < c.r_hi then begin
          complete c ~now ~off:c.r_lo ~len:(!nl + 1 - c.r_lo);
          c.r_lo <- !nl + 1
        end
        else continue := false
    done;
    if c.r_lo = c.r_hi then begin
      c.r_lo <- 0;
      c.r_hi <- 0
    end
    else if c.r_lo > 0 then begin
      Bytes.blit c.rbuf c.r_lo c.rbuf 0 (c.r_hi - c.r_lo);
      c.r_hi <- c.r_hi - c.r_lo;
      c.r_lo <- 0
    end
  in
  let drain c =
    let again = ref true in
    while !again && not c.closed do
      if c.r_hi = Bytes.length c.rbuf then begin
        let b = Bytes.create (2 * Bytes.length c.rbuf) in
        Bytes.blit c.rbuf 0 b 0 c.r_hi;
        c.rbuf <- b
      end;
      match Unix.read c.fd c.rbuf c.r_hi (Bytes.length c.rbuf - c.r_hi) with
      | 0 -> again := false; fail_conn c
      | k ->
        (* A read that did not fill the buffer drained the socket; skip
           the read that would only answer EAGAIN. *)
        again := c.r_hi + k = Bytes.length c.rbuf;
        c.r_hi <- c.r_hi + k;
        parse c ~now:(Clock.now_ns ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        again := false
      | exception Unix.Unix_error (_, _, _) -> again := false; fail_conn c
    done
  in
  (* Closed loop: each connection walks the array for its own requests. *)
  let rec next_for c k =
    if c.cursor >= n then ()
    else if reqs.(c.cursor).conn <> k then (c.cursor <- c.cursor + 1; next_for c k)
  in
  Array.iteri (fun _ c -> c.cursor <- 0) conns;
  let next_open = ref 0 in
  while !done_ < n do
    let now = Clock.now_ns () in
    (match mode with
    | Closed window ->
      Array.iteri
        (fun k c ->
          next_for c k;
          while (not c.closed) && c.count < window && c.cursor < n do
            sent_at.(c.cursor) <- now;
            enqueue c c.cursor;
            c.cursor <- c.cursor + 1;
            next_for c k
          done)
        conns
    | Open _ ->
      while !next_open < n && due !next_open <= now do
        let i = !next_open in
        let d = due i in
        sent_at.(i) <- d;
        late.(i) <- now - d;
        let c = conns.(reqs.(i).conn) in
        if c.closed then begin
          on_mismatch i "<connection closed>";
          incr failed;
          incr done_;
          incr sent
        end
        else enqueue c i;
        incr next_open
      done);
    Array.iter flush conns;
    if !done_ < n then begin
      let live = Array.to_list conns |> List.filter (fun c -> not c.closed) in
      let rd = List.map (fun c -> c.fd) live in
      let wr =
        List.filter_map
          (fun c -> if c.o_hi > c.o_lo then Some c.fd else None)
          live
      in
      (* Open loop: sleep until [spin_ns] before the next due time, then
         poll.  Waking from [select] on a virtual machine takes tens of
         microseconds even with precise timers, and a late send would
         count as server latency. *)
      let timeout =
        match mode with
        | Open _ when !next_open < n ->
          Float.max 0.0 (float_of_int (due !next_open - Clock.now_ns () - spin_ns) /. 1e9)
        | _ -> 0.05
      in
      let r, _, _ =
        try Unix.select rd wr [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let before = !done_ in
      List.iter (fun c -> if List.memq c.fd r then drain c) live;
      let now = Clock.now_ns () in
      if !done_ > before then last_progress := now
      else if
        float_of_int (now - !last_progress) /. 1e9 > timeout_s
        && (match mode with Open _ -> !next_open >= n | Closed _ -> true)
      then begin
        (* Timeout: count everything still in flight as failed. *)
        Array.iter
          (fun c ->
            while c.count > 0 do
              on_mismatch c.ring.(c.head) "<timeout>";
              c.head <- (c.head + 1) land (ring_cap - 1);
              c.count <- c.count - 1;
              incr failed;
              incr done_
            done)
          conns;
        if !done_ < n then begin
          (* unsent requests of a dead connection in closed loop *)
          failed := !failed + (n - !done_);
          done_ := n
        end
      end
    end
  done;
  let elapsed = Clock.now_ns () - t0 in
  {
    sent = !sent;
    ok = !ok;
    failed = !failed;
    ok_queries = !okq;
    elapsed_ns = elapsed;
    cpu_s = cpu () -. cpu0;
    lat_ns = lat;
    late_ns = late;
    replies;
  }

(* The phases of [parts] as one, for whole-window counts and tails. *)
let concat parts =
  let cat f = Array.concat (List.map f parts) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 parts in
  {
    sent = sum (fun r -> r.sent);
    ok = sum (fun r -> r.ok);
    failed = sum (fun r -> r.failed);
    ok_queries = sum (fun r -> r.ok_queries);
    elapsed_ns = sum (fun r -> r.elapsed_ns);
    cpu_s = List.fold_left (fun a r -> a +. r.cpu_s) 0.0 parts;
    lat_ns = cat (fun r -> r.lat_ns);
    late_ns = cat (fun r -> r.late_ns);
    replies = cat (fun r -> r.replies);
  }

(* One control request (STATS, LOAD, ...) on an idle connection: returns
   the reply line without its newline. *)
let control c line =
  let r =
    run ~keep:true ~mode:(Closed 1) [| c |]
      [| { conn = 0; line; wire = line ^ "\n"; expect = ""; prefix = true; queries = 0 } |]
  in
  let s = r.replies.(0) in
  if s = "" then failwith ("no reply to " ^ line)
  else String.sub s 0 (String.length s - 1)
