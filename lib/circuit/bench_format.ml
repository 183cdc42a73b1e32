exception Parse_error of { file : string; line : int; msg : string }

type raw_decl =
  | Rinput
  | Rgate of Gate.kind * string list

let fail file line msg = raise (Parse_error { file; line; msg })

let strip s = String.trim s

(* "g = NAND(a, b)" -> (g, NAND, [a;b]); "INPUT(g)" -> input decl. *)
let parse_line ~file lineno line =
  let fail line msg = fail file line msg in
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = strip line in
  if line = "" then None
  else begin
    let paren_args inner =
      String.split_on_char ',' inner |> List.map strip |> List.filter (fun s -> s <> "")
    in
    let parse_call s =
      match String.index_opt s '(' with
      | None -> fail lineno ("expected '(' in: " ^ s)
      | Some i ->
        if s.[String.length s - 1] <> ')' then fail lineno ("expected ')' in: " ^ s);
        let head = strip (String.sub s 0 i) in
        let inner = String.sub s (i + 1) (String.length s - i - 2) in
        (head, paren_args inner)
    in
    match String.index_opt line '=' with
    | Some eq ->
      let lhs = strip (String.sub line 0 eq) in
      let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
      let head, args = parse_call rhs in
      let kind =
        match Gate.of_string head with
        | Some k -> k
        | None -> fail lineno ("unknown gate type: " ^ head)
      in
      if kind = Gate.Input then fail lineno "INPUT cannot appear on the right-hand side";
      if not (Gate.arity_ok kind (List.length args)) then
        fail lineno (Printf.sprintf "%s cannot take %d fanin(s)" head (List.length args));
      Some (`Decl (lhs, Rgate (kind, args)))
    | None ->
      let head, args = parse_call line in
      let arg =
        match args with [ a ] -> a | _ -> fail lineno "INPUT/OUTPUT take exactly one name"
      in
      (match String.uppercase_ascii head with
       | "INPUT" -> Some (`Decl (arg, Rinput))
       | "OUTPUT" -> Some (`Output arg)
       | _ -> fail lineno ("unknown directive: " ^ head))
  end

let parse ?(file = "-") text =
  let fail line msg = fail file line msg in
  let lines = String.split_on_char '\n' text in
  let decls : (string, raw_decl * int) Hashtbl.t = Hashtbl.create 256 in
  let order : string list ref = ref [] in
  let outputs : (string * int) list ref = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match parse_line ~file lineno line with
      | None -> ()
      | Some (`Output name) -> outputs := (name, lineno) :: !outputs
      | Some (`Decl (name, d)) ->
        if Hashtbl.mem decls name then fail lineno ("duplicate declaration of " ^ name);
        Hashtbl.add decls name (d, lineno);
        order := name :: !order)
    lines;
  let order = List.rev !order in
  let outputs = List.rev !outputs in
  if outputs = [] then begin
    (* A trailing newline ends the last line; it does not start one. *)
    let n = List.length lines in
    fail (if n > 1 && List.nth lines (n - 1) = "" then n - 1 else n) "no OUTPUT declared"
  end;
  (* Topological sort by DFS over fanin references; [lineno] is the line
     of the declaration that reads [name]. *)
  let ids : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let kinds = ref [] and fanins = ref [] and names = ref [] in
  let next_id = ref 0 in
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec visit lineno name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
      let decl, line =
        match Hashtbl.find_opt decls name with
        | Some d -> d
        | None -> fail lineno ("undeclared signal: " ^ name)
      in
      if Hashtbl.mem visiting name then fail line ("combinational cycle through " ^ name);
      Hashtbl.add visiting name ();
      let fanin_ids =
        match decl with
        | Rinput -> [||]
        | Rgate (_, args) -> Array.of_list (List.map (visit line) args)
      in
      Hashtbl.remove visiting name;
      let id = !next_id in
      incr next_id;
      Hashtbl.add ids name id;
      let kind = match decl with Rinput -> Gate.Input | Rgate (k, _) -> k in
      kinds := kind :: !kinds;
      fanins := fanin_ids :: !fanins;
      names := name :: !names;
      id
  in
  List.iter (fun name -> ignore (visit (snd (Hashtbl.find decls name)) name)) order;
  let output_list =
    List.map
      (fun (name, lineno) ->
        match Hashtbl.find_opt ids name with
        | Some id -> id
        | None -> fail lineno ("OUTPUT references undeclared signal: " ^ name))
      outputs
  in
  Netlist.make
    ~kinds:(Array.of_list (List.rev !kinds))
    ~fanins:(Array.of_list (List.rev !fanins))
    ~names:(Array.of_list (List.rev !names))
    ~output_list

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse ~file:path text

let print ppf c =
  Format.fprintf ppf "# %d inputs, %d outputs, %d gates@." (Array.length (Netlist.inputs c))
    (Array.length (Netlist.outputs c)) (Netlist.gate_count c);
  Array.iter (fun i -> Format.fprintf ppf "INPUT(%s)@." (Netlist.name c i)) (Netlist.inputs c);
  Array.iter (fun o -> Format.fprintf ppf "OUTPUT(%s)@." (Netlist.name c o)) (Netlist.outputs c);
  Netlist.iter_gates c (fun n ->
      let k = Netlist.kind c n in
      let spelled = match k with Gate.Buf -> "BUFF" | _ -> Gate.to_string k in
      let args =
        Netlist.fanin c n |> Array.to_list |> List.map (Netlist.name c) |> String.concat ", "
      in
      Format.fprintf ppf "%s = %s(%s)@." (Netlist.name c n) spelled args)

let to_string c = Format.asprintf "%a" print c

let save path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
