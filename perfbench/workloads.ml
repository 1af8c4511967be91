(* The three serving workloads, as seeded request streams.

   - [hot]: optimizer re-costing.  2,000 distinct ESTs over 12 skeletons
     spanning 1-3 tables, Zipf(1) popularity, one text and one BIN
     connection.  The working set fits the 1 MiB estimate cache, so the
     stream loads the shard loop, the zero-copy front end and the cache
     hit path and bypasses inference.
   - [miss]: ad-hoc exploration.  Queries drawn uniformly over 48
     skeletons of two or three tables, one request in four an ESTBATCH of
     8 bodies (single ESTs in the open loop), one text connection.  The estimate cache thrashes while all
     48 plans stay resident: plan bind/execute, cache fill/evict and the
     batch path are loaded; plan compilation is not.
   - [churn]: schema-wide optimizer plus model refresh.  Queries drawn
     uniformly over 4,000 skeletons (more than the 256-entry plan cache),
     1% TRUTH requests with exact sizes, and a LOAD of the same model file
     every 4,000 requests, which bumps the model version and invalidates
     every cache key while the answers stay checkable.  Loads plan
     compilation, plan-cache eviction, registry publish and q-error
     telemetry.

   Request counts, not durations, bound each phase, so a seed reproduces
   the exact request sequence and every STATS-derived count.  The counts
   are sized from [--seconds] and a nominal per-workload rate. *)

open Selest
module Rng = Util.Rng
module P = Serve.Protocol

type t = {
  name : string;
  conns : bool array;  (** per connection: speaks BIN frames *)
  window : int;  (** closed loop: outstanding requests per connection *)
  rate : float;  (** open loop: requests per second *)
  warm : Engine.req array;
  closed : Engine.req array;
  open_ : Engine.req array;
  sample : string array;  (** bodies whose q-error is reported *)
  truths : float array;  (** exact sizes of [sample] *)
  skeletons : int;
  space : float;  (** distinct queries the skeletons admit *)
}

let names = [ "hot"; "miss"; "churn" ]

(* Share of [--seconds] spent in each measured phase. *)
let closed_share = 0.4
let open_share = 0.6

let text_req ~conn ~queries ~expect ~prefix line =
  { Engine.conn; line; wire = line ^ "\n"; expect; prefix; queries }

let est_req (o : Queries.oracle) ~conn ~bin body =
  let e = Queries.estimate o body in
  if bin then
    {
      Engine.conn;
      line = "EST " ^ body;
      wire = P.Bin.encode_request (P.Bin.Best { model = None; body });
      expect = P.Bin.encode_response (P.Bin.Bvalue e);
      prefix = false;
      queries = 1;
    }
  else
    text_req ~conn ~queries:1 ~prefix:false
      ~expect:("OK " ^ Queries.text_answer e ^ "\n")
      ("EST " ^ body)

let batch_req o ~conn bodies =
  let answers = List.map (fun b -> Queries.text_answer (Queries.estimate o b)) bodies in
  text_req ~conn ~queries:(List.length bodies) ~prefix:false
    ~expect:("OK " ^ String.concat " " answers ^ "\n")
    ("ESTBATCH " ^ String.concat " || " bodies)

let truth_req o ~conn body =
  let truth = Queries.truth o body in
  let e = Queries.estimate o body in
  text_req ~conn ~queries:1 ~prefix:true
    ~expect:
      (Printf.sprintf "OK qerror=%.6g estimate=%s n="
         (Obs.Qerror.value ~est:e ~truth)
         (Queries.text_answer e))
    (Printf.sprintf "TRUTH %.17g %s" truth body)

let load_req ~conn ~model_file =
  text_req ~conn ~queries:0 ~prefix:true ~expect:"OK loaded default version "
    (Printf.sprintf "LOAD default %s" model_file)

(* The EST bodies a request line carries. *)
let bodies_of line =
  let starts p = String.length line > String.length p && String.sub line 0 (String.length p) = p in
  let after k = String.sub line k (String.length line - k) in
  if starts "EST " then [ after 4 ]
  else if starts "ESTBATCH " then begin
    let rest = after 9 and acc = ref [] and start = ref 0 in
    let n = String.length rest in
    for i = 0 to n - 4 do
      if String.sub rest i 4 = " || " then begin
        acc := String.sub rest !start (i - !start) :: !acc;
        start := i + 4
      end
    done;
    List.rev (String.sub rest !start (n - !start) :: !acc)
  end
  else if starts "TRUTH " then
    match String.index_from_opt line 6 ' ' with
    | Some i -> [ after (i + 1) ]
    | None -> []
  else []

(* A workload's query distribution under one generator: its skeletons and
   a body sampler. *)
let distribution name rng =
  let pick skel r = Queries.body r skel.(Rng.int r (Array.length skel)) in
  match name with
  | "hot" ->
    let skel =
      Queries.skeletons rng ~n:12 ~shape_ids:[| 0; 1; 2; 3; 4; 5 |] ~min_attrs:2 ~max_attrs:3
    in
    let distinct = Hashtbl.create 4096 and pool = ref [] in
    while Hashtbl.length distinct < 2000 do
      let b = pick skel rng in
      if not (Hashtbl.mem distinct b) then (Hashtbl.add distinct b (); pool := b :: !pool)
    done;
    let pool = Array.of_list (List.rev !pool) in
    let zipf = Queries.zipf_sampler (Array.length pool) in
    (skel, fun r -> pool.(zipf r))
  | "miss" ->
    let skel =
      Queries.skeletons rng ~n:48 ~shape_ids:[| 3; 4; 5 |] ~min_attrs:3 ~max_attrs:5
    in
    (skel, pick skel)
  | "churn" ->
    let skel =
      Queries.skeletons rng ~n:4000 ~shape_ids:[| 3; 4; 5 |] ~min_attrs:2 ~max_attrs:6
    in
    (skel, pick skel)
  | _ -> invalid_arg ("unknown workload " ^ name)

let make ~name ~seed ~seconds ~(oracle : Queries.oracle) ~model_file =
  (* The query space (skeletons, and hot's popularity ranking) is part of
     the workload's definition and the same for every seed; [seed] drives
     the draws from it.  Per-request cost therefore does not depend on the
     seed, only the order and mix of requests do. *)
  let skel, draw_body = distribution name (Rng.create (Hashtbl.hash (name, "space"))) in
  let rng = Rng.create (Hashtbl.hash (name, seed)) in
  (* The q-error sample is fixed too, so the accuracy figures of one
     program and model are the same on every run. *)
  let sample =
    let r = Rng.create (Hashtbl.hash (name, "qerror")) in
    Array.init 200 (fun _ -> draw_body r)
  in
  let secs = float_of_int seconds in
  let build ?open_draw ~conns ~rate ~nominal ~draw ~warm_n () =
    let closed_n = max 1 (int_of_float (secs *. closed_share *. nominal)) in
    let open_n = max 1 (int_of_float (secs *. open_share *. rate)) in
    let gen draw n = Array.init n (fun _ -> draw rng) in
    let warm = gen draw warm_n in
    let closed = gen draw closed_n in
    let open_ = gen (Option.value open_draw ~default:draw) open_n in
    {
      name;
      conns;
      window = 32;
      rate;
      warm;
      closed;
      open_;
      sample;
      truths = Array.map (Queries.truth oracle) sample;
      skeletons = Array.length skel;
      space = Array.fold_left (fun a s -> a +. Queries.space s) 0.0 skel;
    }
  in
  match name with
  | "hot" ->
    (* One shared request per (query, connection): repeats only index. *)
    let memo = Hashtbl.create 4096 and next = ref 0 in
    let draw rng =
      let conn = !next land 1 in
      incr next;
      let body = draw_body rng in
      match Hashtbl.find_opt memo (conn, body) with
      | Some r -> r
      | None ->
        let r = est_req oracle ~conn ~bin:(conn = 1) body in
        Hashtbl.add memo (conn, body) r;
        r
    in
    build ~conns:[| false; true |] ~rate:60_000.0 ~nominal:140_000.0 ~draw ~warm_n:20_000 ()
  | "miss" ->
    let est rng = est_req oracle ~conn:0 ~bin:false (draw_body rng) in
    let draw rng =
      if Rng.int rng 4 = 0 then batch_req oracle ~conn:0 (List.init 8 (fun _ -> draw_body rng))
      else est rng
    in
    (* The open loop sends single ESTs: a batch costs eight, so with
       batches mixed in the median request's latency is mostly whether it
       queued behind one, which on a shared 2-core host swung by 40%
       between runs. *)
    build ~conns:[| false |] ~rate:10_000.0 ~nominal:10_000.0 ~draw ~open_draw:est
      ~warm_n:2_000 ()
  | _ ->
    let count = ref 0 in
    let draw rng =
      incr count;
      if !count mod 4000 = 0 then load_req ~conn:0 ~model_file
      else if Rng.int rng 100 = 0 then truth_req oracle ~conn:0 (draw_body rng)
      else est_req oracle ~conn:0 ~bin:false (draw_body rng)
    in
    build ~conns:[| false |] ~rate:1_000.0 ~nominal:4_500.0 ~draw ~warm_n:2_000 ()
