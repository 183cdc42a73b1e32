(* The one shared command-line surface for pipeline configs.  Subcommands
   compose [config] (or individual args) instead of re-declaring their own
   flag soup; validation (with did-you-mean) happens at parse time via the
   Arg converters, so errors render as proper cmdliner usage errors. *)

open Cmdliner

let msg r = Result.map_error (fun m -> `Msg m) r

let circuit_conv =
  let parse s = msg (Config.circuit_of_string s) in
  let print ppf src = Format.pp_print_string ppf (Config.circuit_name src) in
  Arg.conv ~docv:"CIRCUIT" (parse, print)

let engine_conv =
  let parse s = msg (Result.map (fun _ -> s) (Config.engine_of_string s)) in
  Arg.conv ~docv:"ENGINE" (parse, Format.pp_print_string)

let circuit_arg =
  Arg.(required & pos 0 (some circuit_conv) None & info [] ~docv:"CIRCUIT"
         ~doc:"Built-in circuit name (see $(b,optprob list)) or path to a .bench file.")

let engine_arg =
  Arg.(value & opt engine_conv "bdd" & info [ "engine"; "e" ] ~docv:"ENGINE"
         ~doc:("ANALYSIS engine: " ^ Config.engine_usage ^ "."))

let confidence_arg =
  Arg.(value & opt float 0.95 & info [ "confidence" ] ~docv:"C"
         ~doc:"Target confidence of the random test.")

let seed_arg = Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"J"
         ~doc:"Worker domains for the parallel kernels (default: $(b,OPTPROB_JOBS) or 1). \
               Results and stage artifacts are independent of J.")

let block_words_arg =
  Arg.(value & opt (some int) None & info [ "block-words" ] ~docv:"W"
         ~doc:"Fault-simulation batch width in 64-pattern words (default: \
               $(b,OPTPROB_BLOCK_WORDS) or 4, i.e. 256 patterns per good-machine pass). \
               Results and stage artifacts are independent of W.")

let weights_arg =
  Arg.(value & opt (some string) None & info [ "weights"; "w" ] ~docv:"FILE"
         ~doc:"Weight file (from `optprob optimize -o`); default: all 0.5.")

let sweeps_arg =
  Arg.(value & opt int 10 & info [ "sweeps" ] ~docv:"K" ~doc:"Maximum optimisation sweeps.")

let grid_arg =
  Arg.(value & opt (some float) (Some 0.05) & info [ "grid" ] ~docv:"G"
         ~doc:"Quantisation grid (paper appendix: 0.05); 0 disables.")

let dyadic_arg =
  Arg.(value & opt (some int) None & info [ "dyadic" ] ~docv:"BITS"
         ~doc:"Quantise to k/2^BITS instead (LFSR weighting hardware grid).")

let patterns_arg ~default =
  Arg.(value & opt int default & info [ "patterns"; "n" ] ~docv:"N"
         ~doc:"Number of random patterns for fault simulation.")

let work_dir_arg =
  Arg.(value & opt (some string) None & info [ "work-dir" ] ~docv:"DIR"
         ~doc:"Content-addressed stage-artifact store.  A re-run with an unchanged config \
               loads every stage from $(docv) (zero re-execution); changing an option \
               re-runs exactly the stages downstream of it.")

let opt_passes_conv =
  let parse s = msg (Config.opt_passes_of_string s) in
  let print ppf l = Format.pp_print_string ppf (String.concat "," l) in
  Arg.conv ~docv:"PASSES" (parse, print)

let no_opt_arg =
  Arg.(value & flag & info [ "no-opt" ]
         ~doc:"Disable the netlist optimization stage (equivalent to \
               $(b,--opt-passes) $(i,none) or $(b,OPTPROB_OPT=off)).")

let opt_passes_arg =
  Arg.(value & opt (some opt_passes_conv) None & info [ "opt-passes" ] ~docv:"LIST"
         ~doc:("Comma-separated netlist optimization passes run to fixpoint before fault \
                analysis (default: all).  Valid: "
               ^ String.concat ", " Rt_circuit.Passes.names
               ^ ", or $(i,none)."))

let opt_rounds_arg =
  Arg.(value & opt int 8 & info [ "opt-rounds" ] ~docv:"R"
         ~doc:"Fixpoint round budget for the optimization passes.")

(* Validated at parse time so a typo renders as a cmdliner usage error
   carrying the shared did-you-mean suggestion. *)
let objective_conv =
  let parse s = msg (Result.map (fun _ -> s) (Config.objective_of_string s)) in
  Arg.conv ~docv:"OBJECTIVE" (parse, Format.pp_print_string)

let objective_arg =
  Arg.(value & opt (some objective_conv) None & info [ "objective" ] ~docv:"OBJECTIVE"
         ~doc:("Optimization objective: " ^ Config.objective_usage
               ^ ".  $(i,single) is the paper objective; $(i,ndetect:K) minimises the                   expected number of faults detected fewer than K times;                   $(i,twostage[:N1]) searches (or pins) an adaptive two-stage split.                   Default: $(b,OPTPROB_OBJECTIVE) or $(i,single)."))

let quantize grid dyadic =
  match (dyadic, grid) with
  | Some bits, _ -> Rt_optprob.Optimize.Dyadic bits
  | None, Some g when g > 0.0 -> Rt_optprob.Optimize.Grid g
  | None, (Some _ | None) -> Rt_optprob.Optimize.No_quantization

(* All subcommand configs funnel through Config.of_source via this one
   constructor.  The circuit/engine args are pre-validated by their
   converters; a value Config still rejects (an out-of-range number) is a
   usage error, exit 124, like a bad option. *)
let make_config circuit engine confidence seed jobs block_words sweeps grid dyadic weights
    patterns work_dir no_opt opt_passes opt_rounds objective =
  let weights =
    match weights with None -> Config.Uniform | Some path -> Config.Weights_file path
  in
  let opt_passes = if no_opt then Some [] else opt_passes in
  match
    Config.of_source ~engine ~confidence ~seed ?jobs ?block_words ~sweeps
      ~quantize:(quantize grid dyadic) ~weights ~patterns ?work_dir ?opt_passes
      ~opt_rounds ?objective circuit
  with
  | Ok cfg -> `Ok cfg
  | Error msg -> `Error (false, msg)

let config ?(default_patterns = 10_000) () =
  Term.(
    ret
      (const make_config $ circuit_arg $ engine_arg $ confidence_arg $ seed_arg $ jobs_arg
      $ block_words_arg $ sweeps_arg $ grid_arg $ dyadic_arg $ weights_arg
      $ patterns_arg ~default:default_patterns $ work_dir_arg $ no_opt_arg $ opt_passes_arg
      $ opt_rounds_arg $ objective_arg))
