(* The repository's benchmark: an out-of-process load generator for
   [selest serve] over three seeded TB workloads (see workloads.ml and
   README.md).

   usage: loadgen.exe --workload hot|miss|churn --seed N --seconds S --trace 0|1
                      [--selest PATH] [--run-dir DIR]

   One run spawns the server several times in turn; each instance is
   warmed, then serves a slice of a closed-loop phase and of an open-loop
   phase, and every reply is checked against the in-process reference.
   With [--trace 0] it prints the end-to-end metrics; with
   [--trace 1] the per-layer metrics, which add a traced in-process replay
   of the same stream (ladder.ml).  The last line of standard output is
   one JSON object: correct, attempted, failed and metrics. *)

open Selest

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("loadgen: " ^ s); exit 2) fmt

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  selest : string;
  run_dir : string;
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  let selest = ref "_build/default/bin/selest_cli.exe" and run_dir = ref "perfbench/_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hot | miss | churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phases");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--selest", Arg.Set_string selest, "PATH the selest CLI executable");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch files of the run");
    ]
    (fun a -> die "unexpected argument %s" a)
    "loadgen --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then die "unknown workload %S" !workload;
  if !seed < 0 then die "--seed is required";
  if !seconds < 1 then die "--seconds must be at least 1";
  if not (Sys.file_exists !selest) then die "no server executable at %s" !selest;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    selest = !selest;
    run_dir = !run_dir;
  }

(* ---- statistics ---------------------------------------------------------- *)

let sorted_floats a =
  let a = Array.map float_of_int a in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- fingerprint --------------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

let commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head ->
    let head = String.trim head in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      match read_file (".git/" ^ String.sub head 5 (String.length head - 5)) with
      | Some c -> String.trim c
      | None -> "unknown"
    else head

(* Digest of the library and CLI sources, which identifies the program
   under test in checkouts that carry no git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  files "lib" @ files "bin"
  |> List.map (fun p -> Digest.to_hex (Digest.file p))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let fingerprint args =
  [
    ("host_cores", `Int (Domain.recommended_domain_count ()));
    ("ocaml", `Str Sys.ocaml_version);
    ("commit", `Str (commit ()));
    ("source_md5", `Str (source_digest ()));
    ("workload", `Str args.workload);
    ("seed", `Int args.seed);
    ("seconds", `Int args.seconds);
    ("trace", `Int (if args.trace then 1 else 0));
  ]

(* ---- JSON output --------------------------------------------------------- *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
         ms)
  ^ "}"

let json_fields fs =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%S: %s" k
             (match v with
             | `Int i -> string_of_int i
             | `Str s -> Printf.sprintf "%S" s
             | `Bool b -> string_of_bool b
             | `Raw r -> r))
         fs)
  ^ "}"

(* ---- the run ------------------------------------------------------------- *)

(* Counters whose deltas over the measured window must repeat exactly for a
   given (workload, seed, seconds). *)
let count_keys =
  [
    "cache_hits"; "cache_misses"; "cache_evictions"; "cache_collisions";
    "plan_cache_hits"; "plan_cache_misses"; "plan_cache_evictions";
    "plan.program_hits"; "plan.program_misses"; "registry_epoch"; "ve.entries_touched";
  ]

let instances = 7

let main args =
  (try Unix.mkdir args.run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path f = Filename.concat args.run_dir f in
  (* The served database and model are fixed; [--seed] drives the
     request streams only. *)
  let data_seed = 1 in
  let t_gen = Unix.gettimeofday () in
  (* The reference: the same database and model the server builds. *)
  let db = Synth.Tb.generate ~seed:data_seed () in
  let model = Selest.learn_prm ~budget_bytes:4096 ~seed:data_seed db in
  let model_file = path "model.prm" in
  Prm.Serialize.save model_file model;
  let oracle = Queries.oracle db model in
  let w = Workloads.make ~name:args.workload ~seed:args.seed ~seconds:args.seconds ~oracle ~model_file in
  Printf.eprintf
    "loadgen: %s seed %d: %d skeletons, %.0f distinct queries; %d warm + %d closed + %d open requests (generator set-up %.1fs)\n%!"
    w.Workloads.name args.seed w.Workloads.skeletons w.Workloads.space
    (Array.length w.Workloads.warm) (Array.length w.Workloads.closed)
    (Array.length w.Workloads.open_) (Unix.gettimeofday () -. t_gen);
  let socket = path "serve.sock" in
  let log = path "serve.log" in
  Out_channel.with_open_text log ignore;
  let spawn () =
    Proc.spawn ~socket ~log
      ~argv:
        [ args.selest; "serve"; "-d"; "tb"; "--learn"; "-b"; "4096"; "--seed";
          string_of_int data_seed; "--socket"; socket ]
  in
  (* The run spawns [instances] servers one after another.  Each is timed
     from spawn to its first PONG, warmed with the same stream, and serves
     one slice of the closed-loop phase and then one slice of the
     open-loop phase; the last one also serves the accuracy sample and the
     traced rungs.  Set-up time is the median over the instances;
     throughput and latency pool every instance's slice.  On a shared host
     one server's speed can differ from the next one's by a third, so no
     single instance sets a run's figures. *)
  let mismatches = ref 0 in
  let on_mismatch (reqs : Engine.req array) i reply =
    incr mismatches;
    if !mismatches <= 5 then
      Printf.eprintf "loadgen: MISMATCH on %S\n  expected %S\n  got      %S\n%!"
        reqs.(i).Engine.line reqs.(i).Engine.expect reply
  in
  let window = Engine.Closed w.Workloads.window in
  let deltas = Hashtbl.create 16 in
  let add_delta before after =
    List.iter
      (fun k ->
        let v = Proc.stat_int after k - Proc.stat_int before k in
        Hashtbl.replace deltas k (v + Option.value ~default:0 (Hashtbl.find_opt deltas k)))
      count_keys
  in
  let serve_instance i =
    let pid, setup = spawn () in
    let conns = Array.map (fun bin -> Engine.connect ~socket ~bin) w.Workloads.conns in
    let phase mode reqs = Engine.run ~on_mismatch:(on_mismatch reqs) ~mode conns reqs in
    let stats () = Proc.stats_of (Engine.control conns.(0) "STATS") in
    let warm = phase window w.Workloads.warm in
    let s0 = stats () in
    let slice a =
      let n = Array.length a in
      Array.sub a (i * n / instances) (((i + 1) * n / instances) - (i * n / instances))
    in
    let closed = phase window (slice w.Workloads.closed) in
    let opened = phase (Engine.Open w.Workloads.rate) (slice w.Workloads.open_) in
    add_delta s0 (stats ());
    let last =
      if i < instances - 1 then None
      else begin
        (* Accuracy: the fixed sample, answers checked like every other. *)
        let sample_reqs =
          Array.map (fun b -> Workloads.est_req oracle ~conn:0 ~bin:false b) w.Workloads.sample
        in
        let sample =
          Engine.run ~on_mismatch:(on_mismatch sample_reqs) ~mode:window [| conns.(0) |]
            sample_reqs
        in
        let rss = Proc.vm_hwm_mb pid in
        let ladder =
          if args.trace then
            Some
              (Ladder.run ~socket ~oracle ~model_file ~data_seed
                 ~inproc_socket:(path "inproc.sock") ~w
                 ~replay:(match w.Workloads.name with "hot" -> 50_000 | "miss" -> 10_000 | _ -> 5_000)
                 ~trace_file:(path (Printf.sprintf "trace-%s-s%d.tsv" args.workload args.seed)))
          else None
        in
        Some (sample, rss, ladder)
      end
    in
    Array.iter Engine.close conns;
    Proc.reap pid;
    Printf.eprintf "loadgen: instance %d: set-up %.3fs, closed %.0f queries/s, open p50 %.1f us\n%!" i
      setup
      (float_of_int closed.Engine.ok_queries /. (float_of_int closed.Engine.elapsed_ns /. 1e9))
      (quantile (sorted_floats opened.Engine.lat_ns) 0.5 /. 1e3);
    (setup, warm, closed, opened, last)
  in
  let runs = List.init instances serve_instance in
  let setups = List.map (fun (s, _, _, _, _) -> s) runs in
  let warms = List.map (fun (_, w, _, _, _) -> w) runs in
  let closed_parts = List.map (fun (_, _, c, _, _) -> c) runs in
  let open_parts = List.map (fun (_, _, _, o, _) -> o) runs in
  let sample, rss, ladder =
    match List.rev runs with (_, _, _, _, Some l) :: _ -> l | _ -> assert false
  in
  let closed = Engine.concat closed_parts and opened = Engine.concat open_parts in
  let qerrors =
    Array.mapi
      (fun i b -> Obs.Qerror.value ~est:(Queries.estimate oracle b) ~truth:w.Workloads.truths.(i))
      w.Workloads.sample
  in
  Array.sort compare qerrors;
  (* ---- metrics ---- *)
  let phases = warms @ [ closed; opened; sample ] in
  let attempted = List.fold_left (fun a (r : Engine.result) -> a + r.Engine.sent) 0 phases in
  let failed = List.fold_left (fun a (r : Engine.result) -> a + r.Engine.failed) 0 phases in
  let measured_attempted = closed.Engine.sent + opened.Engine.sent in
  let measured_failed = closed.Engine.failed + opened.Engine.failed in
  let secs ns = float_of_int ns /. 1e9 in
  let qps = float_of_int closed.Engine.ok_queries /. secs closed.Engine.elapsed_ns in
  let lat = sorted_floats opened.Engine.lat_ns in
  let late = sorted_floats opened.Engine.late_ns in
  let us x = x /. 1e3 in
  (* Over the closed loop only: the open loop polls near each due time. *)
  let cpu_frac = closed.Engine.cpu_s /. secs closed.Engine.elapsed_ns in
  let d key = Hashtbl.find deltas key in
  (* 0 when the layer saw no probes in the window. *)
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let counts = List.map (fun k -> (k, d k)) count_keys in
  let e2e =
    [
      ("setup_s", median_f setups, "s");
      ("qps", qps, "1/s");
      ("lat_p50_us", us (quantile lat 0.5), "us");
      ("qerror_p50", quantile qerrors 0.5, "ratio");
      ("qerror_p95", quantile qerrors 0.95, "ratio");
      ("server_rss_mb", rss, "MB");
    ]
  in
  let per_layer =
    [
      ("fail_ratio", float_of_int measured_failed /. float_of_int (max 1 measured_attempted), "ratio");
      ("loadgen.late_p99_us", us (quantile late 0.99), "us");
      ("loadgen.late_max_us", us (quantile late 1.0), "us");
      ("loadgen.cpu_frac", cpu_frac, "ratio");
      ("shard.lat_p99_us", us (quantile lat 0.99), "us");
      ("shard.lat_p999_us", us (quantile lat 0.999), "us");
      ("lru.hit_ratio", ratio (d "cache_hits") (d "cache_misses"), "ratio");
      ("lru.evictions", float_of_int (d "cache_evictions"), "count");
      ("lru.collisions", float_of_int (d "cache_collisions"), "count");
      ("plan_cache.hit_ratio", ratio (d "plan_cache_hits") (d "plan_cache_misses"), "ratio");
      ("plan_cache.evictions", float_of_int (d "plan_cache_evictions"), "count");
      ("plan.program_hit_ratio", ratio (d "plan.program_hits") (d "plan.program_misses"), "ratio");
      ( "exec.entries_per_miss",
        float_of_int (d "ve.entries_touched") /. float_of_int (max 1 (d "cache_misses")),
        "count" );
      ("registry.epochs", float_of_int (d "registry_epoch"), "count");
    ]
    @ match ladder with Some l -> l.Ladder.metrics | None -> []
  in
  (* A run the generator itself limited is invalid, not failed. *)
  let late_p50 = us (quantile late 0.5) in
  let valid = late_p50 < 100.0 && cpu_frac < 0.95 in
  if not valid then
    Printf.eprintf
      "loadgen: run INVALID: the generator limited it (late p50 %.0f us, cpu %.2f)\n%!"
      late_p50 cpu_frac;
  (* Exact repeat of the window's counts for one (workload, seed, seconds). *)
  let counts_file =
    (* Keyed by the program and generator builds, so only runs of one
       build are compared. *)
    let build =
      Digest.to_hex
        (Digest.string (source_digest () ^ Digest.file Sys.executable_name ^ Digest.file args.selest))
    in
    path
      (Printf.sprintf "counts-%s-s%d-n%d-%s.txt" args.workload args.seed args.seconds
         (String.sub build 0 12))
  in
  let counts_text =
    String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)
  in
  let repeat_ok =
    match read_file counts_file with
    | Some prev when String.trim prev <> counts_text ->
      Printf.eprintf "loadgen: STATS counts differ from an earlier run of this seed:\n  was %s\n  now %s\n%!"
        (String.trim prev) counts_text;
      false
    | Some _ -> true
    | None ->
      Out_channel.with_open_text counts_file (fun oc -> output_string oc (counts_text ^ "\n"));
      true
  in
  let ladder_ok =
    match ladder with
    | None -> true
    | Some l ->
      if not l.Ladder.bit_identical then
        prerr_endline "loadgen: Exec.run disagrees with Plan.execute";
      if w.Workloads.name = "hot" && not l.Ladder.monotone then
        prerr_endline "loadgen: note: hot ladder rungs are not monotone on this run";
      l.Ladder.bit_identical
  in
  let correct = failed = 0 && repeat_ok && ladder_ok in
  let shown = if args.trace then per_layer else e2e in
  (* Human-readable table first; the JSON line last. *)
  Printf.printf "# %s seed=%d seconds=%d trace=%b valid=%b\n" args.workload args.seed
    args.seconds args.trace valid;
  Printf.printf "# closed: %d requests, %d queries in %.3fs (window %d/conn, %d conn)\n"
    closed.Engine.sent closed.Engine.ok_queries (secs closed.Engine.elapsed_ns)
    w.Workloads.window (Array.length w.Workloads.conns);
  Printf.printf "# open: %d requests at %.0f/s, latency samples %d\n" opened.Engine.sent
    w.Workloads.rate (Array.length lat);
  Printf.printf "# counts: %s\n" counts_text;
  List.iter (fun (n, v, u) -> Printf.printf "%-30s %14.4f %s\n" n v u) (e2e @ per_layer);
  let result_fields =
    fingerprint args
    @ [
        ("valid", `Bool valid);
        ("late_p50_us", `Raw (json_float late_p50));
        ( "ladder_monotone",
          match ladder with Some l -> `Bool l.Ladder.monotone | None -> `Str "not traced" );
        ("correct", `Bool correct);
        ("attempted", `Int attempted);
        ("failed", `Int failed);
        ("latency_samples", `Int (Array.length lat));
        ("counts", `Raw (json_fields (List.map (fun (k, v) -> (k, `Int v)) counts)));
        ("end_to_end", `Raw (json_metrics e2e));
        ("per_layer", `Raw (json_metrics per_layer));
      ]
  in
  Out_channel.with_open_text
    (path (Printf.sprintf "result-%s-s%d-t%d.json" args.workload args.seed (if args.trace then 1 else 0)))
    (fun oc -> output_string oc (json_fields result_fields ^ "\n"));
  Printf.printf "%s\n%!"
    (json_fields
       [
         ("correct", `Bool correct);
         ("attempted", `Int attempted);
         ("failed", `Int failed);
         ("metrics", `Raw (json_metrics shown));
       ])

let () =
  let args = parse_args () in
  Engine.precise_timers ();
  match main args with
  | () -> exit 0
  | exception Proc.Busy socket ->
    die "a live server already holds %s; stop it first" socket
  | exception e -> die "%s" (Printexc.to_string e)
