(* The end-to-end benchmark, plain pass: whole [optprob] operations timed
   from outside the library, with no tracing anywhere.

   With --workload, one workload runs in this process and the last line
   of stdout is the JSON result; without it, every workload runs in its
   own child process.  See README.md for the workloads and metrics.

     dune exec bench/e2e/main.exe                      # all four, fixed reps
     dune exec bench/e2e/main.exe -- --workload optimize-cop --seconds 25 *)

module W = Workloads

let usage =
  "main.exe [--workload NAME] [--seed S] [--seconds T | --reps R] [--probes K] [--strict]"

(* --- host speed --------------------------------------------------------------

   On a shared host the machine's speed drifts by up to 1.5x within
   minutes, and a whole run can sit in a slow phase: over ten identical
   runs, the interquartile range of the median rep time reached 30-60% of
   its median (README.md has the numbers).  So every rep is divided by the
   mean time of a fixed ALU loop run right before and right after it,
   which slows down with the host, and run_s is the lower decile of those
   ratios, since contention only ever adds time.  [loop_s], about the
   loop's time on the host of the README's baseline, scales the ratio
   back to seconds. *)

let loop_s = 8e-4

let host_loop () =
  let t0 = W.now () in
  let x = ref 1.0 in
  for i = 1 to 1 lsl 18 do
    x := (!x *. 1.0000001) +. (Float.of_int (i land 7) *. 1e-9)
  done;
  ignore (Sys.opaque_identity !x);
  W.now () -. t0

(* --- setup probes -------------------------------------------------------------- *)

(* A probe is one cold invocation: this process runs the first rep and
   prints the wall-clock time at its end, followed by "ok" or "fail". *)
let probe w ~seed =
  let t_end = ref Float.nan in
  let ok =
    W.attempt w ~seed (fun () ->
        let r = W.rep w ~seed in
        t_end := W.now ();
        r)
  in
  Printf.printf "%.17g %s\n%!" !t_end (if Option.is_some ok then "ok" else "fail")

exception Harness of string

(* Seconds from spawning a probe to the end of its first rep; [None] when
   that rep failed its checks. *)
let setup_sample w ~seed =
  let argv =
    [| Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int seed; "--probe" |]
  in
  let t0 = W.now () in
  let ic = Unix.open_process_args_in argv.(0) argv in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, String.split_on_char ' ' line) with
  | Unix.WEXITED 0, [ t_end; "ok" ] -> Some (float_of_string t_end -. t0)
  | Unix.WEXITED 0, [ _; "fail" ] -> None
  | _ -> raise (Harness (Printf.sprintf "setup probe printed %S and did not exit 0" line))

(* --- the run -------------------------------------------------------------------- *)

let run w (opts : W.run_opts) ~probes =
  W.print_header w;
  let attempted = ref 0 and failed = ref 0 in
  let count r =
    incr attempted;
    if Option.is_none r then incr failed;
    r
  in
  (* The cold first rep of this process: checked, not timed. *)
  ignore (count (W.attempt w ~seed:opts.seed (fun () -> W.rep w ~seed:opts.seed)));
  let times = ref [] and scaled = ref [] and setups = ref [] and taken = ref 0 in
  let take_probe () =
    incr taken;
    Option.iter (fun s -> setups := s :: !setups) (count (setup_sample w ~seed:opts.seed))
  in
  let t_start = W.now () in
  let k = ref 0 in
  while W.more opts ~default_reps:w.W.reps ~t_start !k do
    (* Probes are spread over the run, so that one slow phase of the host
       cannot move every setup sample at once. *)
    if
      !taken < probes
      && W.progress opts ~default_reps:w.W.reps ~t_start !k
         >= Float.of_int !taken /. Float.of_int probes
    then take_probe ();
    incr k;
    let seed = opts.seed + !k in
    let before = host_loop () in
    let r = count (W.attempt w ~seed (fun () -> W.rep w ~seed)) in
    let after = host_loop () in
    Option.iter
      (fun dt ->
        times := dt :: !times;
        scaled := (dt *. loop_s /. (0.5 *. (before +. after))) :: !scaled)
      r
  done;
  while !taken < probes do
    take_probe ()
  done;
  let heap_mb =
    Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let run_s = W.percentile 0.1 !scaled and setup_s = W.median !setups in
  let n = List.length !times in
  Printf.printf "run_s         %.4f s   lower decile of %d reps, each scaled by the host loop\n"
    run_s n;
  Printf.printf "run_s.p50     %.4f s   median wall time, not gated\n" (W.median !times);
  Printf.printf "run_s.p90     %.4f s   n=%d, not gated\n" (W.percentile 0.9 !times) n;
  Printf.printf "setup_s       %.4f s   median of %d cold processes, spawn to end of first rep\n"
    setup_s (List.length !setups);
  Printf.printf "heap_peak_mb  %.2f MB   OCaml major heap only; ppsfp Bigarrays are off-heap\n"
    heap_mb;
  Printf.printf "error_rate    %g   %d of %d reps failed\n"
    (Float.of_int !failed /. Float.of_int !attempted)
    !failed !attempted;
  W.print_result ~attempted:!attempted ~failed:!failed
    [ ("run_s", run_s, "s"); ("setup_s", setup_s, "s"); ("heap_peak_mb", heap_mb, "MB") ];
  if opts.strict && !failed > 0 then exit 1

let () =
  let probes = ref 9 and is_probe = ref false in
  let opts =
    W.parse_args ~usage
      [ ("--probes", Arg.Set_int probes, "K cold processes sampled for setup_s (default 9)");
        ("--probe", Arg.Set is_probe, " (internal) run one cold rep and print its end time") ]
  in
  match opts.W.workload with
  | None -> W.each_workload_in_own_process ~forward:[ "--probes"; string_of_int !probes ] opts
  | Some w when !is_probe -> probe w ~seed:opts.W.seed
  | Some w -> (
    try run w opts ~probes:(max 1 !probes)
    with Harness msg ->
      prerr_endline ("harness error: " ^ msg);
      exit 2)
