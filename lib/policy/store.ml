open Inltune_opt

(* Policy files.  Format, line-oriented:

     inltune-policy v1 threshold
     23 11 5 2048 135

     inltune-policy v1 tree
     split 0 22.5
     leaf inline
     leaf no-inline

   Threshold payloads go through Heuristic.of_array, so out-of-range values
   are clamped into the Table 1 ranges exactly like a GA genome would be;
   wrong arity or non-integers are an error.  Tree payloads go through
   Dtree.of_text's validation. *)

type t =
  | Threshold of Heuristic.t
  | Tree of Dtree.t

let kind_name = function Threshold _ -> "threshold" | Tree _ -> "tree"

let header kind = Printf.sprintf "inltune-policy v1 %s" kind

let to_string = function
  | Threshold h ->
    let genes = Heuristic.to_array h in
    header "threshold" ^ "\n"
    ^ String.concat " " (Array.to_list (Array.map string_of_int genes))
    ^ "\n"
  | Tree t -> header "tree" ^ "\n" ^ Dtree.to_text t

let of_string text =
  match String.index_opt text '\n' with
  | None -> Error "empty policy file (missing header)"
  | Some i -> (
    let first = String.trim (String.sub text 0 i) in
    let rest = String.sub text (i + 1) (String.length text - i - 1) in
    match String.split_on_char ' ' first with
    | [ "inltune-policy"; "v1"; "threshold" ] -> (
      let words =
        List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim rest))
      in
      match
        let genes = List.map int_of_string_opt words in
        if List.exists (( = ) None) genes then None
        else Some (Array.of_list (List.filter_map Fun.id genes))
      with
      | None -> Error "threshold policy: parameters must be integers"
      | Some genes -> (
        match Heuristic.of_array genes with
        | h -> Ok (Threshold h)
        | exception Invalid_argument _ ->
          Error
            (Printf.sprintf "threshold policy: expected %d parameters, got %d"
               (Array.length Heuristic.param_names)
               (Array.length genes))))
    | [ "inltune-policy"; "v1"; "tree" ] -> (
      match Dtree.of_text ~dim:Features.dim rest with
      | Ok t -> Ok (Tree t)
      | Error e -> Error ("tree policy: " ^ e))
    | [ "inltune-policy"; v; _ ] when v <> "v1" ->
      Error (Printf.sprintf "unsupported policy version '%s'" v)
    | _ -> Error (Printf.sprintf "bad policy header '%s'" first))

let save path t = Inltune_support.Textfile.write path (to_string t)

(* A file error already names the path; a parse error gets it here. *)
let load path =
  Result.bind (Inltune_support.Textfile.read path) (fun text ->
      Result.map_error (fun e -> path ^ ": " ^ e) (of_string text))
