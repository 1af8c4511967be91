(* The traced run: the workload's closed-phase stream replayed in this
   process through the public entry point of each layer, one rung at a
   time, with a span around every call.

   Spans go into a preallocated buffer owned by the benchmark and are
   written out when the run ends.  Nothing here installs the library's own
   span collector or trace log: either would move EST off the code that
   serves (a per-domain collect sends it down the generic engine, an
   installed sink disables the zero-copy fast path). *)

open Selest
module Clock = Obs.Clock
module Server = Serve.Server
module Exec = Selest_plan.Exec

(* ---- span buffer --------------------------------------------------------- *)

let span_names =
  [|
    "rung.socket"; "rung.fast"; "rung.ref"; "rung.estbatch"; "squery.parse";
    "squery.canon"; "squery.hash"; "lru.find"; "plan_cache.find_or_compile";
    "plan.compile"; "plan.bind"; "plan.execute"; "plan.program_for"; "exec.load";
    "exec.run"; "registry.load"; "learn.learn"; "rung.front"; "rung.plan";
  |]

let id name =
  let rec go i = if span_names.(i) = name then i else go (i + 1) in
  go 0

let s_socket = id "rung.socket"
let s_fast = id "rung.fast"
let s_ref = id "rung.ref"
let s_batch = id "rung.estbatch"
let s_parse = id "squery.parse"
let s_canon = id "squery.canon"
let s_hash = id "squery.hash"
let s_lru = id "lru.find"
let s_pc = id "plan_cache.find_or_compile"
let s_compile = id "plan.compile"
let s_bind = id "plan.bind"
let s_execute = id "plan.execute"
let s_program = id "plan.program_for"
let s_load = id "exec.load"
let s_run = id "exec.run"
let s_registry = id "registry.load"
let s_learn = id "learn.learn"
let s_front = id "rung.front"
let s_plan = id "rung.plan"

type spans = {
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  req : int array;
  mutable n : int;
}

let spans_create cap =
  {
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    n = 0;
  }

(* Open a span; -1 when the buffer is full (the span is dropped). *)
let enter sp ~name ~parent ~req =
  let i = sp.n in
  if i >= Array.length sp.name then -1
  else begin
    sp.n <- i + 1;
    sp.name.(i) <- name;
    sp.parent.(i) <- parent;
    sp.req.(i) <- req;
    sp.start.(i) <- Clock.now_ns ();
    i
  end

let leave sp i = if i >= 0 then sp.stop.(i) <- Clock.now_ns ()

let write_spans sp path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\treq\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i span_names.(sp.name.(i)) sp.start.(i)
      sp.stop.(i) sp.parent.(i) sp.req.(i)
  done;
  close_out oc

(* Durations of the spans named [name] (self time when [self]: minus the
   time covered by their direct children), in ns. *)
let durations ?(self = false) sp name =
  let child = Array.make sp.n 0 in
  if self then
    for i = 0 to sp.n - 1 do
      let p = sp.parent.(i) in
      if p >= 0 then child.(p) <- child.(p) + (sp.stop.(i) - sp.start.(i))
    done;
  let acc = ref [] in
  for i = sp.n - 1 downto 0 do
    if sp.name.(i) = name then acc := (sp.stop.(i) - sp.start.(i) - child.(i)) :: !acc
  done;
  Array.of_list !acc

let median a =
  if Array.length a = 0 then nan
  else begin
    let a = Array.map float_of_int a in
    Array.sort compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  end

(* ---- the rungs ----------------------------------------------------------- *)

type result = {
  metrics : (string * float * string) list;
  monotone : bool;  (** socket >= fast >= ref >= front end + probe *)
  bit_identical : bool;  (** Exec.run answered what Plan.execute answered *)
}

let is_load line = String.length line > 5 && String.sub line 0 5 = "LOAD "

let run ~socket ~(oracle : Queries.oracle) ~model_file ~data_seed ~inproc_socket
    ~(w : Workloads.t) ~replay ~trace_file =
  let lines =
    Array.sub w.Workloads.closed 0 (min replay (Array.length w.Workloads.closed))
    |> Array.map (fun (r : Engine.req) -> r.Engine.line)
  in
  let warm_lines = Array.map (fun (r : Engine.req) -> r.Engine.line) w.Workloads.warm in
  let n_bodies =
    Array.fold_left (fun acc l -> acc + List.length (Workloads.bodies_of l)) 0 lines
  in
  (* Per line: socket, fast, ref; per body: 11 spans in the rungs below the
     server; plus batches, registry and learn. *)
  let sp = spans_create ((3 * Array.length lines) + (12 * n_bodies) + 8192) in
  let ( let@ ) (name, parent, req) f =
    let i = enter sp ~name ~parent ~req in
    let r = f i in
    leave sp i;
    r
  in
  (* Rung: a socket round trip to the spawned server, one outstanding. *)
  let client = Serve.Client.connect ~socket () in
  Array.iteri
    (fun k line ->
      if k < 5000 then
        let@ _ = (s_socket, -1, k) in
        ignore (Serve.Client.request client line))
    lines;
  Serve.Client.close client;
  (* An in-process server on the same model, never bound to a socket. *)
  let srv = Server.create ~db:oracle.Queries.db ~socket:inproc_socket () in
  ignore (Serve.Registry.register (Server.registry srv) ~name:"default" oracle.Queries.model);
  let on_line = Server.handle_line_shard srv ~shard:0 in
  let on_frame = Server.handle_frame srv in
  let on_line_fast, on_frame_fast = Server.fast_handlers srv ~shard:0 in
  (* Rung: the fast handlers and the shard's message loop on a socketpair. *)
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Serve.Shard.Loopback.connect b in
  let rbuf = Bytes.create 65536 in
  let rec until_nl filled =
    let k = Unix.read a rbuf filled (Bytes.length rbuf - filled) in
    if Bytes.get rbuf (filled + k - 1) <> '\n' then until_nl (filled + k)
  in
  let round wire =
    ignore (Unix.write_substring a wire 0 (String.length wire));
    Serve.Shard.Loopback.step conn ~on_line_fast ~on_frame_fast ~on_line ~on_frame;
    until_nl 0
  in
  let wires = Array.map (fun l -> l ^ "\n") lines in
  Array.iter (fun l -> round (l ^ "\n")) warm_lines;
  let queries =
    Array.fold_left (fun acc l -> acc + max 1 (List.length (Workloads.bodies_of l))) 0 lines
  in
  (* An allocation-free loop, so the GC delta is the server's own. *)
  let gc0 = Gc.quick_stat () in
  for k = 0 to Array.length wires - 1 do
    let i = enter sp ~name:s_fast ~parent:(-1) ~req:k in
    round wires.(k);
    leave sp i
  done;
  let gc1 = Gc.quick_stat () in
  let minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let majors = gc1.Gc.major_collections - gc0.Gc.major_collections in
  Unix.close a;
  Unix.close b;
  (* Rung: the transport-free reference dispatcher: a warm-up pass, an
     untraced pass timed as a whole, then the traced pass. *)
  let pass traced =
    let t0 = Clock.now_ns () in
    Array.iteri
      (fun k l ->
        if traced then begin
          let i = enter sp ~name:s_ref ~parent:(-1) ~req:k in
          ignore (on_line l);
          leave sp i
        end
        else ignore (on_line l))
      lines;
    Clock.now_ns () - t0
  in
  ignore (pass false);
  let untraced_ns = pass false in
  ignore (pass true);
  (* Tracing overhead: what one span costs against an untraced request.
     Pass-to-pass noise on a shared host is larger than the span cost, so
     the two passes are not differenced; the span cost is timed over a
     tight loop of its own. *)
  let span_ns =
    let probe = spans_create 100_000 in
    let t0 = Clock.now_ns () in
    for k = 0 to 99_999 do
      leave probe (enter probe ~name:s_ref ~parent:(-1) ~req:k)
    done;
    float_of_int (Clock.now_ns () - t0) /. 1e5
  in
  let overhead_pct =
    100.0 *. span_ns /. (float_of_int untraced_ns /. float_of_int (Array.length lines))
  in
  (* Rung: ESTBATCH of 8 consecutive bodies of the stream. *)
  let bodies = Array.to_list lines |> List.concat_map Workloads.bodies_of |> Array.of_list in
  let n_batches = min 1000 (Array.length bodies / 8) in
  for k = 0 to n_batches - 1 do
    let line = "ESTBATCH " ^ String.concat " || " (Array.to_list (Array.sub bodies (8 * k) 8)) in
    let@ _ = (s_batch, -1, k) in
    ignore (on_line line)
  done;
  Server.shutdown_pool srv;
  (* Rungs below the server: front end, estimate cache, plan cache, plan,
     bytecode executor.  Each rung replays the stream's bodies in order in
     a pass of its own, so its data stays as warm as on a server that runs
     only that layer's work per request; the model version is bumped at
     every LOAD as the server would. *)
  let items =
    let version = ref 1 in
    Array.to_list lines
    |> List.concat_map (fun line ->
           if is_load line then (incr version; [])
           else List.map (fun b -> (!version, Bytes.of_string b)) (Workloads.bodies_of line))
    |> Array.of_list
  in
  let n = Array.length items in
  let sq = Db.Squery.create (Db.Squery.Symtab.of_schema Synth.Tb.schema) in
  let hashes = Array.make n 0 and vecs = Array.make n Db.Squery.Vec.empty in
  let queries_of = Array.make n None in
  Array.iteri
    (fun k (version, buf) ->
      let f = enter sp ~name:s_front ~parent:(-1) ~req:k in
      let i = enter sp ~name:s_parse ~parent:f ~req:k in
      Db.Squery.parse sq buf ~off:0 ~len:(Bytes.length buf);
      leave sp i;
      let i = enter sp ~name:s_canon ~parent:f ~req:k in
      Db.Squery.canon sq;
      leave sp i;
      let i = enter sp ~name:s_hash ~parent:f ~req:k in
      let h = Db.Squery.hash sq in
      leave sp i;
      leave sp f;
      hashes.(k) <- Hashtbl.hash (h, version);
      vecs.(k) <- Db.Squery.Vec.of_scratch sq;
      queries_of.(k) <- Some (Db.Squery.to_query sq))
    items;
  let query k = Option.get queries_of.(k) in
  let lru = Serve.Lru.create ~capacity_bytes:(1 lsl 20) in
  let text = "OK 1234.5678901234567\n" and bin = String.make 13 '\000' in
  for k = 0 to n - 1 do
    let i = enter sp ~name:s_lru ~parent:(-1) ~req:k in
    let hit =
      match Serve.Lru.find lru hashes.(k) with
      | e -> Db.Squery.Vec.equal e.Serve.Lru.vec vecs.(k)
      | exception Not_found -> false
    in
    leave sp i;
    if not hit then
      Serve.Lru.add lru hashes.(k)
        { Serve.Lru.est = 0.0; text; bin; vec = vecs.(k); model = "default"; version = 1 }
  done;
  let pc = Serve.Plan_cache.create () in
  let plans =
    Array.mapi
      (fun k (version, _) ->
        let q = query k in
        let skel = Serve.Canon.Skel.make ~name:"default" ~version q in
        let@ p = (s_pc, -1, k) in
        fst
          (Serve.Plan_cache.find_or_compile pc ~hash:skel.Serve.Canon.Skel.hash
             ~key:skel.Serve.Canon.Skel.key ~compile:(fun () ->
               let@ _ = (s_compile, p, k) in
               Plan.compile oracle.Queries.model q)))
      items
  in
  let bindings =
    Array.init n (fun k ->
        let@ _ = (s_bind, -1, k) in
        Plan.bind plans.(k) (query k))
  in
  let probs =
    Array.init n (fun k ->
        let@ _ = (s_execute, -1, k) in
        Plan.execute plans.(k) bindings.(k))
  in
  let identical = ref true in
  for k = 0 to n - 1 do
    let prog =
      let@ _ = (s_program, -1, k) in
      Plan.program_for plans.(k) bindings.(k)
    in
    match prog with
    | None -> ()
    | Some prog -> (
      let st = Exec.state_for prog in
      let i = enter sp ~name:s_load ~parent:(-1) ~req:k in
      let loaded = Exec.load prog st bindings.(k) in
      leave sp i;
      match loaded with
      | `Ok ->
        let i = enter sp ~name:s_run ~parent:(-1) ~req:k in
        Exec.run st;
        leave sp i;
        if Int64.bits_of_float (Exec.result st) <> Int64.bits_of_float probs.(k) then
          identical := false
      | `Contradiction | `No_match -> ())
  done;
  (* Rungs off the request path: model publish and structure learning. *)
  let reg = Serve.Registry.create ~schema:Synth.Tb.schema in
  for k = 0 to 4 do
    let@ _ = (s_registry, -1, k) in
    ignore (Serve.Registry.load reg ~name:"default" ~path:model_file)
  done;
  let learned =
    let@ _ = (s_learn, -1, 0) in
    Prm.Learn.learn
      ~config:{ (Prm.Learn.default_config ~budget_bytes:4096) with Prm.Learn.seed = data_seed }
      oracle.Queries.db
  in
  if sp.n = Array.length sp.name then
    prerr_endline "loadgen: span buffer full; later spans were dropped";
  write_spans sp trace_file;
  let med ?self name = median (durations ?self sp name) in
  let rtt_us = med s_socket /. 1e3 in
  let fast_ns = med s_fast and ref_ns = med s_ref in
  let front_ns = med s_front and probe_ns = med s_lru in
  let per_query x = x /. float_of_int (max 1 queries) in
  {
    metrics =
      [
        ("shard.rtt_p50_us", rtt_us, "us");
        ("shard.self_us", rtt_us -. (fast_ns /. 1e3), "us");
        ("server.fast_ns", fast_ns, "ns");
        ("server.ref_ns", ref_ns, "ns");
        ("server.estbatch_ns_per_body", med s_batch /. 8.0, "ns");
        ("squery.parse_ns", med s_parse, "ns");
        ("squery.canon_ns", med s_canon, "ns");
        ("squery.hash_ns", med s_hash, "ns");
        ("lru.probe_ns", probe_ns, "ns");
        ("plan_cache.probe_ns", med ~self:true s_pc, "ns");
        ("plan.compile_us", med s_compile /. 1e3, "us");
        ("plan.bind_ns", med s_bind, "ns");
        ("plan.execute_ns", med s_execute, "ns");
        ("exec.load_ns", med s_load, "ns");
        ("exec.run_ns", med s_run, "ns");
        ("registry.load_ms", med s_registry /. 1e6, "ms");
        ("learn.s", med s_learn /. 1e9, "s");
        ("learn.moves", float_of_int (List.length learned.Prm.Learn.trajectory), "count");
        ("gc.minor_words_per_query", per_query minor_words, "words");
        ("gc.major_per_10k", per_query (float_of_int majors *. 1e4), "count");
        ( "trace.overhead_pct",
          overhead_pct,
          "%" );
      ];
    monotone = rtt_us *. 1e3 >= fast_ns && fast_ns >= ref_ns && ref_ns >= front_ns +. probe_ns;
    bit_identical = !identical;
  }
