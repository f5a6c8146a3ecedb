type t = Committed | Aborted of string | Shed

let to_string = function
  | Committed -> "committed"
  | Aborted reason -> "aborted: " ^ reason
  | Shed -> "shed"
